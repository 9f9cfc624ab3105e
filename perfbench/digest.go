package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"

	"tango/internal/sim"
)

// defaultSeed is the seed whose digests are recorded in digests.json.
const defaultSeed = 1

//go:embed digests.json
var digestsJSON []byte

// recordedDigests maps digestKey to the digest recorded with the
// benchmark for that workload, seed, size and instance.
var recordedDigests = func() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		panic(fmt.Sprintf("perfbench: digests.json: %v", err))
	}
	return m
}()

func digestKey(workload string, seed int64, small bool, instance int) string {
	size := "full"
	if small {
		size = "small"
	}
	return fmt.Sprintf("%s/%s/seed=%d/instance=%d", workload, size, seed, instance)
}

// instanceSeed derives the seed of a run's k-th workload instance from
// the run's seed; instance 0 uses the run's seed itself.
func instanceSeed(seed int64, k int) int64 {
	if k == 0 {
		return seed
	}
	return sim.NewStreams(seed).Stream(fmt.Sprintf("perfbench/instance/%d", k)).Int63()
}

// checkDigests returns the failed determinism checks: episodes of one
// instance — the untraced and traced episodes of a traced run — must
// simulate the same statistics, and an instance with a recorded digest
// must reproduce it.
func checkDigests(cfg config, eps []*episode, recorded map[string]string) []string {
	var errs []string
	seen := map[int]string{}
	for _, e := range eps {
		if e.digest == "" {
			continue
		}
		if d, ok := seen[e.instance]; ok && d != e.digest {
			errs = append(errs, fmt.Sprintf("instance %d: digests %s and %s differ", e.instance, d, e.digest))
		}
		seen[e.instance] = e.digest
		if want, ok := recorded[digestKey(cfg.workload, cfg.seed, cfg.small, e.instance)]; ok && want != e.digest {
			errs = append(errs, fmt.Sprintf("instance %d: digest %s does not match the recorded %s", e.instance, e.digest, want))
		}
	}
	return errs
}

// digester hashes simulated statistics, one labelled line at a time.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) add(label string, vals ...any) {
	fmt.Fprint(d.h, label)
	for _, v := range vals {
		fmt.Fprintf(d.h, " %v", v)
	}
	fmt.Fprintln(d.h)
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }
