package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"activegeo/internal/assess"
	"activegeo/internal/measure"
	"activegeo/internal/netsim"
	"activegeo/internal/stream"
)

// streamFingerprintAt builds a fresh tiny lab, runs one streaming pass,
// and returns the store fingerprint plus the pass stats.
func streamFingerprintAt(t *testing.T, concurrency, batchSize, queueDepth int) (string, stream.PassStats) {
	t.Helper()
	return armedStreamFingerprint(t, armedLab(t, concurrency, "honest"), batchSize, queueDepth)
}

func armedStreamFingerprint(t *testing.T, lab *Lab, batchSize, queueDepth int) (string, stream.PassStats) {
	t.Helper()
	a := lab.StreamingAuditor(batchSize, queueDepth)
	stats, err := a.Sync(context.Background(), lab.StreamSource())
	if err != nil {
		t.Fatal(err)
	}
	return a.Store().Fingerprint(), stats
}

// armedLab builds a fresh tiny lab that is "honest", has fault
// injection armed ("faults"), or has a lying-proxy and Byzantine-anchor
// adversary armed ("adversary").
func armedLab(t *testing.T, concurrency int, arming string) *Lab {
	t.Helper()
	cfg := tinyAuditConfig(concurrency)
	if arming == "faults" {
		cfg.Faults = netsim.DefaultFaults(0.15)
	}
	lab, err := NewLab(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if arming == "adversary" {
		lab.Adversary = &measure.AdversaryPlan{
			Seed: 42, Attack: measure.AttackInflate, ProxyFraction: 0.3,
			Aggressiveness: 1, ByzantineFraction: 0.15,
		}
	}
	return lab
}

// TestStreamingDeterministicAcrossWidths: fingerprints must be identical
// at any concurrency, batch size and queue depth — scheduling shapes
// wall-clock only. Each row's pass must equal Audit's default-geometry
// pass under the same arming, with fault injection or the adversary
// armed too: the resilient sessions and the adversarial measurements
// draw from per-server streams, and landmark cross-validation and the
// population-judged inspections are whole-pass resolutions.
func TestStreamingDeterministicAcrossWidths(t *testing.T) {
	for _, w := range []struct {
		arming             string
		conc, batch, queue int
	}{
		{"honest", 1, 1, 1}, {"honest", 2, 4, 1}, {"honest", 8, 8, 2}, {"honest", 4, 64, 3},
		{"faults", 4, 8, 2}, {"adversary", 4, 8, 2},
	} {
		t.Run(fmt.Sprintf("%s/c%d_b%d_q%d", w.arming, w.conc, w.batch, w.queue), func(t *testing.T) {
			run, err := armedLab(t, 4, w.arming).Audit()
			if err != nil {
				t.Fatal(err)
			}
			ref := Fingerprint(run)
			got, stats := armedStreamFingerprint(t, armedLab(t, w.conc, w.arming), w.batch, w.queue)
			if got != ref {
				t.Fatalf("diverged from the default geometry:\n--- default ---\n%s--- this geometry ---\n%s", ref, got)
			}
			if stats.Skipped != 0 || stats.Audited != stats.Total {
				t.Fatalf("first pass over a fresh store must audit everything: %+v", stats)
			}
		})
	}
}

// TestStreamingIncrementalSkip: a second pass over an unchanged fleet
// re-measures nothing; dirtying exactly k servers' claims re-measures
// exactly those k. The quick fleet runs at the default batch geometry.
func TestStreamingIncrementalSkip(t *testing.T) {
	for _, tc := range []struct {
		name             string
		lab              func(*testing.T) *Lab
		batchSize, queue int
	}{
		{"tiny", func(t *testing.T) *Lab { return armedLab(t, 4, "honest") }, 8, 2},
		{"quick", func(t *testing.T) *Lab { return lab(t) }, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "quick" && testing.Short() {
				t.Skip("full quick-fleet streaming pass")
			}
			lab := tc.lab(t)
			a := lab.StreamingAuditor(tc.batchSize, tc.queue)
			src := lab.StreamSource()
			if _, err := a.Sync(context.Background(), src); err != nil {
				t.Fatal(err)
			}

			second, err := a.Sync(context.Background(), src)
			if err != nil {
				t.Fatal(err)
			}
			if second.Audited != 0 || second.Skipped != second.Total {
				t.Fatalf("unchanged fleet must be fully skipped on pass 2: %+v", second)
			}

			// Dirty three servers by changing their advertised claims,
			// and put the claims back afterwards: the quick lab is shared.
			servers := lab.Fleet.Servers()
			dirty := map[netsim.HostID]bool{}
			for _, i := range []int{0, 7, 23} {
				s, claim := servers[i], servers[i].ClaimedCountry
				t.Cleanup(func() { s.ClaimedCountry = claim })
				s.ClaimedCountry = "xx"
				dirty[s.Host.ID] = true
			}
			third, err := a.Sync(context.Background(), stream.NewFleetSource(lab.Fleet))
			if err != nil {
				t.Fatal(err)
			}
			if third.Audited != len(dirty) {
				t.Fatalf("pass 3 audited %d servers, want exactly the %d dirty ones (%+v)", third.Audited, len(dirty), third)
			}
			for id := range dirty {
				if p := a.Store().LastPass(id); p != 3 {
					t.Errorf("dirty server %s last measured in pass %d, want 3", id, p)
				}
			}
			for _, s := range servers {
				if !dirty[s.Host.ID] {
					if p := a.Store().LastPass(s.Host.ID); p == 3 {
						t.Errorf("clean server %s was re-measured in pass 3", s.Host.ID)
					}
				}
			}
		})
	}
}

// TestStreamingChurnStorm: decommission + add anchors *mid-pass* (from
// the between-batches callback). Servers audited before the churn keep
// stale signatures only if their batch formed before the bump — either
// way, after enough passes every signature converges to the new epoch
// and a final pass audits nothing; and every server was re-measured at
// least once after the storm.
func TestStreamingChurnStorm(t *testing.T) {
	lab, err := NewLab(tinyAuditConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	var auditor *stream.Auditor
	churned := false
	rng := rand.New(rand.NewSource(99))
	auditor = stream.New(stream.Config{
		Cons:        lab.Cons,
		Client:      lab.Client,
		Env:         lab.Env,
		Locator:     lab.CBGpp,
		Seed:        lab.Cfg.Seed*1000003 + 17,
		Concurrency: 4,
		BatchSize:   8,
		QueueDepth:  1,
		OnBatchDone: func(bs stream.BatchStats) {
			// Storm once, in the middle of pass 2.
			if bs.Pass == 2 && bs.Index == 0 && !churned {
				churned = true
				lab.Cons.Decommission(3, rng)
				if _, err := lab.Cons.AddAnchors(3, rng); err != nil {
					t.Errorf("mid-stream AddAnchors: %v", err)
				}
				lab.Cons.RefreshCalibration(2, rng)
			}
		},
	})
	src := lab.StreamSource()
	if _, err := auditor.Sync(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	epochBefore := lab.Cons.Epoch()

	// Pass 2: everything is clean until the storm hits after the first
	// batch; servers skipped before the storm keep pre-storm signatures.
	// To give pass 2 at least one batch, dirty one server's claim.
	lab.Fleet.Servers()[0].ClaimedCountry = "xx"
	if _, err := auditor.Sync(context.Background(), stream.NewFleetSource(lab.Fleet)); err != nil {
		t.Fatal(err)
	}
	if !churned {
		t.Fatal("storm callback never fired")
	}
	if lab.Cons.Epoch() == epochBefore {
		t.Fatal("churn did not advance the constellation epoch")
	}

	// Converge: every server must be re-measured against the post-storm
	// constellation within a few passes, then a quiescent pass audits 0.
	totalReaudited := 0
	var last stream.PassStats
	for i := 0; i < 5; i++ {
		last, err = auditor.Sync(context.Background(), stream.NewFleetSource(lab.Fleet))
		if err != nil {
			t.Fatal(err)
		}
		totalReaudited += last.Audited
		if last.Audited == 0 {
			break
		}
	}
	if last.Audited != 0 {
		t.Fatalf("store did not quiesce after the churn storm: %+v", last)
	}
	if totalReaudited < last.Total {
		t.Fatalf("only %d of %d servers re-measured after the storm", totalReaudited, last.Total)
	}
}

// TestStreamingGoldenSHA: the streaming fingerprint over the tiny fleet
// hashes to the same pinned golden SHA-256 as the batch audit — the
// strongest cross-implementation pin we have.
func TestStreamingGoldenSHA(t *testing.T) {
	got, _ := streamFingerprintAt(t, 4, 16, 2)
	sum := sha256.Sum256([]byte(got))
	if hex.EncodeToString(sum[:]) != auditGoldenSHA256 {
		t.Fatalf("streaming fingerprint sha256 = %s, want golden %s\nfingerprint:\n%s",
			hex.EncodeToString(sum[:]), auditGoldenSHA256, got)
	}
}

// regroupedSource overrides some servers' group keys in a source.
type regroupedSource struct {
	stream.Source
	keys map[netsim.HostID]string
}

func (s regroupedSource) Spec(i int) stream.ServerSpec {
	spec := s.Source.Spec(i)
	if k, ok := s.keys[spec.ID]; ok {
		spec.GroupKey = k
	}
	return spec
}

// TestStreamingGroupMove: between two passes over the quick fleet, one
// server that the AS//24 rule reclassified leaves every group and
// another server joins the group it left. The second pass re-audits
// exactly those two, the store's group count changes to what
// assess.DisambiguateGroup gives over the moved groups, and the store
// equals a fresh auditor's full pass over the moved source.
func TestStreamingGroupMove(t *testing.T) {
	lab := lab(t)
	src := lab.StreamSource()
	pre := map[netsim.HostID]*assess.Result{} // pre-group verdicts
	cfg := lab.streamConfig(0, 0)
	cfg.OnBatchDone = func(bs stream.BatchStats) {
		for _, r := range bs.Results {
			pre[netsim.HostID(r.ServerID)] = r
		}
	}
	a := stream.New(cfg)
	if _, err := a.Sync(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	before := a.Store().Stats().ReclassifiedByGroup

	// reclassified applies the group rule to copies of the pre-group
	// results under src's keys with moves applied.
	reclassified := func(moves map[netsim.HostID]string) int {
		groups := map[string][]*assess.Result{}
		for i := 0; i < src.Len(); i++ {
			spec := regroupedSource{src, moves}.Spec(i)
			if spec.GroupKey != "" {
				c := *pre[spec.ID]
				groups[spec.GroupKey] = append(groups[spec.GroupKey], &c)
			}
		}
		n := 0
		for _, members := range groups {
			assess.DisambiguateGroup(members)
			for _, r := range members {
				if r.Verdict != pre[netsim.HostID(r.ServerID)].Verdict {
					n++
				}
			}
		}
		return n
	}
	if got := reclassified(nil); got != before {
		t.Fatalf("store reclassified %d servers by group, DisambiguateGroup %d", before, got)
	}

	// The leaver is the first server the group rule reclassified; the
	// joiner is the first other server whose move into the leaver's
	// group still leaves the group count changed.
	var leaver stream.ServerSpec
	for i := 0; i < src.Len() && leaver.ID == ""; i++ {
		spec := src.Spec(i)
		if v, _, _ := a.Store().VerdictOf(spec.ID); spec.GroupKey != "" && v != pre[spec.ID].Verdict {
			leaver = spec
		}
	}
	if leaver.ID == "" {
		t.Fatal("the group rule reclassified no quick-fleet server")
	}
	var moves map[netsim.HostID]string
	want := before
	for i := 0; i < src.Len() && want == before; i++ {
		spec := src.Spec(i)
		if spec.ID == leaver.ID || spec.GroupKey == leaver.GroupKey {
			continue
		}
		moves = map[netsim.HostID]string{leaver.ID: "", spec.ID: leaver.GroupKey}
		want = reclassified(moves)
	}
	if want == before {
		t.Fatal("no move into the leaver's group changes the group count")
	}

	moved := regroupedSource{src, moves}
	stats, err := a.Sync(context.Background(), moved)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Audited != len(moves) {
		t.Fatalf("pass 2 audited %d servers, want the %d moved ones (%+v)", stats.Audited, len(moves), stats)
	}
	for id := range moves {
		if p := a.Store().LastPass(id); p != 2 {
			t.Errorf("moved server %s last measured in pass %d, want 2", id, p)
		}
	}
	if got := a.Store().Stats().ReclassifiedByGroup; got != want {
		t.Errorf("after the moves the store reclassified %d servers by group (%d before), DisambiguateGroup %d",
			got, before, want)
	}

	fresh := stream.New(lab.streamConfig(0, 0))
	if _, err := fresh.Sync(context.Background(), moved); err != nil {
		t.Fatal(err)
	}
	if got, want := a.Store().Fingerprint(), fresh.Store().Fingerprint(); got != want {
		t.Fatalf("incremental store diverged from a fresh pass over the moved source:\n--- incremental ---\n%s--- fresh ---\n%s", got, want)
	}
}
