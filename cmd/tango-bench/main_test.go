package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeReport(t *testing.T, rep Report) string {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareAgainstMachineFingerprint(t *testing.T) {
	box := Report{CPUModel: "Xeon", NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0",
		Micro: []MicroResult{{Name: "Encap", NsPerOp: 600}}}

	// Same machine: compared, and a 2x slowdown is a regression.
	cur := box
	cur.Micro = []MicroResult{{Name: "Encap", NsPerOp: 1200}}
	v, err := compareAgainst(writeReport(t, box), cur, 0.2)
	if err != nil || len(v) != 1 || !strings.HasPrefix(v[0], "Encap:") {
		t.Fatalf("same machine: violations %q, err %v", v, err)
	}

	// Different machine: refused before any number is compared.
	other := cur
	other.CPUModel = "EPYC"
	if _, err := compareAgainst(writeReport(t, box), other, 0.2); err == nil ||
		!strings.Contains(err.Error(), "fingerprints differ") {
		t.Fatalf("different machine: err %v, want a fingerprint mismatch", err)
	}

	// A baseline written before reports carried a fingerprint is
	// compared as before.
	old := box
	old.CPUModel, old.NumCPU = "", 0
	v, err = compareAgainst(writeReport(t, old), cur, 0.2)
	if err != nil || len(v) != 1 {
		t.Fatalf("baseline without fingerprint: violations %q, err %v", v, err)
	}
}
