package stream

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"activegeo/internal/atlas"
	"activegeo/internal/cbgpp"
	"activegeo/internal/geo"
	"activegeo/internal/geoloc"
	"activegeo/internal/netsim"
)

// testEnv is a minimal measurement substrate for the stream package's
// own tests: a small constellation, a coarse grid and a calibrated
// CBG++, with no fleet — the synthetic source provisions servers itself.
type testEnv struct {
	net    *netsim.Network
	cons   *atlas.Constellation
	env    *geoloc.Env
	loc    geoloc.Algorithm
	client netsim.HostID
}

func newTestEnv(t *testing.T, seed int64) *testEnv {
	t.Helper()
	net := netsim.New(seed)
	rng := rand.New(rand.NewSource(seed))
	cons, err := atlas.Build(net, atlas.Config{Anchors: 16, Probes: 8, SamplesPerPair: 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	env := geoloc.NewEnv(4)
	cal, err := cbgpp.Calibrate(cons, cbgpp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	client := netsim.HostID("stream-test-client")
	if err := net.AddHost(&netsim.Host{
		ID:            client,
		Loc:           geo.Point{Lat: 50.11, Lon: 8.68},
		AccessDelayMs: 1,
	}); err != nil {
		t.Fatal(err)
	}
	return &testEnv{
		net:    net,
		cons:   cons,
		env:    env,
		loc:    cbgpp.New(env, cal, cbgpp.Options{}),
		client: client,
	}
}

func (te *testEnv) auditor(batchSize, queueDepth int) *Auditor {
	return New(Config{
		Cons:        te.cons,
		Client:      te.client,
		Env:         te.env,
		Locator:     te.loc,
		Seed:        4242,
		Concurrency: 4,
		BatchSize:   batchSize,
		QueueDepth:  queueDepth,
	})
}

// TestSynthSourceBoundedProvisioning: a synthetic fleet far larger than
// one batch keeps at most (QueueDepth+2) batches of hosts registered at
// any instant — queued batches, the one being measured, and the one the
// feeder holds while blocked on a full queue. That structural bound is
// what makes the streaming audit O(batch) in live state, not O(fleet).
func TestSynthSourceBoundedProvisioning(t *testing.T) {
	te := newTestEnv(t, 31)
	const n, batchSize, queueDepth = 400, 32, 2
	src := NewSynthSource(te.net, n, 777)
	a := te.auditor(batchSize, queueDepth)

	stats, err := a.Sync(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Audited != n || stats.Skipped != 0 {
		t.Fatalf("first pass over a fresh synthetic fleet: %+v, want %d audited", stats, n)
	}
	bound := (queueDepth + 2) * batchSize
	if got := src.MaxLiveHosts(); got > bound {
		t.Fatalf("peak live hosts %d exceeds the (queue+2)×batch bound %d", got, bound)
	}
	if got := src.MaxLiveHosts(); got < batchSize {
		t.Fatalf("peak live hosts %d never reached one full batch %d — provisioning is broken", got, batchSize)
	}

	// Second pass: nothing changed, so nothing is re-provisioned.
	before := src.MaxLiveHosts()
	stats, err = a.Sync(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Audited != 0 || stats.Skipped != n {
		t.Fatalf("second pass must skip everything: %+v", stats)
	}
	if got := src.MaxLiveHosts(); got != before {
		t.Fatalf("second pass provisioned hosts: peak went %d → %d", before, got)
	}
}

// TestSynthDeterministicAcrossBatchGeometry: the verdict fingerprint of
// a synthetic pass is independent of batch size and queue depth.
func TestSynthDeterministicAcrossBatchGeometry(t *testing.T) {
	const n = 200
	ref := ""
	for i, geom := range []struct{ batch, queue int }{{16, 1}, {64, 3}} {
		te := newTestEnv(t, 31)
		src := NewSynthSource(te.net, n, 777)
		a := te.auditor(geom.batch, geom.queue)
		if _, err := a.Sync(context.Background(), src); err != nil {
			t.Fatal(err)
		}
		fp := a.Store().Fingerprint()
		if i == 0 {
			ref = fp
		} else if fp != ref {
			t.Fatalf("batch=%d queue=%d diverged from batch=16 queue=1:\n--- ref ---\n%s--- got ---\n%s",
				geom.batch, geom.queue, ref, fp)
		}
	}
}

// TestSyncContextCancel: a canceled context aborts the pass with the
// context error rather than hanging the feeder on a full queue, and
// also when the queue is deep enough that the feeder has already handed
// off every batch: the pass then must not report success or resolve.
// Only batches written to the store count as audited, and everything
// else stays dirty for the next pass.
func TestSyncContextCancel(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		servers, batch, queue int
		wantAudited           int
	}{
		{name: "feeder blocked", servers: 400, batch: 8, queue: 1, wantAudited: 8},
		{name: "feeder done", servers: 64, batch: 8, queue: 16, wantAudited: 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			te := newTestEnv(t, 31)
			src := NewSynthSource(te.net, tc.servers, 777)
			a := te.auditor(tc.batch, tc.queue)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			announced := 0
			a.cfg.OnBatchDone = func(BatchStats) {
				announced++
				cancel()
			}
			stats, err := a.Sync(ctx, src)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled Sync returned %v, want context.Canceled", err)
			}
			if stats.Audited != tc.wantAudited || stats.Batches != 1 || announced != 1 {
				t.Fatalf("canceled pass: %+v with %d batches announced, want %d audited in 1 batch",
					stats, announced, tc.wantAudited)
			}

			// A fresh pass picks up exactly the remainder, and a third
			// pass is quiescent.
			a.cfg.OnBatchDone = nil
			resume, err := a.Sync(context.Background(), src)
			if err != nil {
				t.Fatal(err)
			}
			if resume.Audited != tc.servers-tc.wantAudited {
				t.Fatalf("resume pass audited %d, want the %d rows the canceled pass left dirty",
					resume.Audited, tc.servers-tc.wantAudited)
			}
			final, err := a.Sync(context.Background(), src)
			if err != nil {
				t.Fatal(err)
			}
			if final.Audited != 0 || final.Skipped != tc.servers {
				t.Fatalf("post-resume pass must be quiescent over all %d servers: %+v", tc.servers, final)
			}
		})
	}
}
