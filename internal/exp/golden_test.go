package exp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"tva/internal/tvatime"
)

// goldenDigest folds every simulated statistic of a sweep into one
// hash: transfers, bottleneck drops and utilization, fairness, the
// heavy-hitter table and the telemetry counters and histograms. It
// hashes the same fields, in the same way, as the repository
// benchmark's sweep digest.
func goldenDigest(results []*Result) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, r := range results {
		fmt.Fprintf(h, "%v/%v/%d/%d|", r.Cfg.Scheme, r.Cfg.Attack, r.Cfg.NumAttackers, r.Cfg.Seed)
		for _, t := range r.Transfers {
			put(uint64(t.User))
			put(uint64(t.Start))
			put(uint64(t.End))
			if t.Completed {
				put(1)
			} else {
				put(0)
			}
		}
		put(r.BottleneckDrops)
		put(math.Float64bits(r.BottleneckUtilization))
		put(math.Float64bits(r.FairnessJain))
		put(math.Float64bits(r.MaxMinRatio))
		tel := &r.Telemetry
		fmt.Fprintf(h, "%v|%v|%v|", tel.SchedDrops, tel.Demotions, tel.LinkDrops)
		put(tel.HostEgressDrops)
		put(tel.GoodputBytes)
		put(tel.QueueDelay.Count())
		put(uint64(tel.QueueDelay.Sum()))
		put(tel.Delivery.Count())
		put(uint64(tel.Delivery.Sum()))
		fmt.Fprintf(h, "%v|", r.Flows)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenGrid is the pinned grid: 4 schemes × 2 attacks × 10 attackers
// × 2 simulated seconds, plus one faulted run (wire loss, duplication,
// jitter, an outage and a router restart) so the impairment paths of
// the event loop are pinned too.
func goldenGrid() []Config {
	cfgs := SweepSpec{
		Base:      Config{Duration: 2 * tvatime.Second, Seed: 1},
		Schemes:   []Scheme{SchemeInternet, SchemeTVA, SchemeSIFF, SchemePushback},
		Attacks:   []Attack{AttackLegacyFlood, AttackRequestFlood},
		Attackers: []int{10},
	}.Expand()
	return append(cfgs, Config{
		Scheme: SchemeTVA, Attack: AttackLegacyFlood, NumAttackers: 10,
		Duration: 2 * tvatime.Second, Seed: 11,
		LossRate: 0.05, DupProb: 0.02, LinkJitter: 2 * tvatime.Millisecond,
		OutageStart: 1200 * tvatime.Millisecond, OutageDuration: 100 * tvatime.Millisecond,
		RestartAt: 1500 * tvatime.Millisecond,
	})
}

// Constants computed before the simulator's event loop was rewritten
// for speed. A change that only makes the simulator faster must leave
// every simulated statistic — and so this hash — alone; a change
// that reorders events moves them.
const goldenSweepDigest = "f3768732ab8b259ff0e34af863a63063131deae9ab79d928dc0846b94c628fc9"

// TestGoldenSweepDigest pins the simulator's outputs across commits.
// TestDeterministicBySeed and the worker-count tests compare two runs
// of one binary; this compares against a constant, so an event-loop
// change that reorders same-time events fails here. The grid runs a
// second time with TxBatch=32, whose outcomes the burst-inlining
// contract says are identical, so it must hash to the same constant.
func TestGoldenSweepDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation integration test skipped in -short mode")
	}
	cfgs := goldenGrid()
	if got := goldenDigest(RunMany(cfgs, 2)); got != goldenSweepDigest {
		t.Errorf("sweep digest %s, want %s", got, goldenSweepDigest)
	}
	for i := range cfgs {
		cfgs[i].TxBatch = 32
	}
	if got := goldenDigest(RunMany(cfgs, 2)); got != goldenSweepDigest {
		t.Errorf("TxBatch=32 sweep digest %s, want %s", got, goldenSweepDigest)
	}
}
