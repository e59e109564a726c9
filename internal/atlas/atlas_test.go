package atlas

import (
	"math/rand"
	"testing"

	"activegeo/internal/geo"
	"activegeo/internal/netsim"
	"activegeo/internal/worldmap"
)

func buildSmall(t testing.TB) *Constellation {
	t.Helper()
	net := netsim.New(7)
	rng := rand.New(rand.NewSource(7))
	c, err := Build(net, Config{Anchors: 60, Probes: 120, SamplesPerPair: 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuildCounts(t *testing.T) {
	c := buildSmall(t)
	if len(c.Anchors()) != 60 {
		t.Errorf("anchors = %d", len(c.Anchors()))
	}
	if len(c.Probes()) != 120 {
		t.Errorf("probes = %d", len(c.Probes()))
	}
	if len(c.All()) != 180 {
		t.Errorf("all = %d", len(c.All()))
	}
}

func TestBuildValidation(t *testing.T) {
	net := netsim.New(1)
	if _, err := Build(net, Config{Anchors: 2}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("too few anchors should fail")
	}
}

func TestBuildDeterministic(t *testing.T) {
	build := func() *Constellation {
		net := netsim.New(7)
		c, err := Build(net, Config{Anchors: 20, Probes: 10, SamplesPerPair: 2}, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := build(), build()
	for i := range a.Anchors() {
		pa, pb := a.Anchors()[i].Host.Loc, b.Anchors()[i].Host.Loc
		if pa != pb {
			t.Fatalf("anchor %d placed differently: %v vs %v", i, pa, pb)
		}
	}
	ca := a.Calibration(a.Anchors()[0].Host.ID)
	cb := b.Calibration(b.Anchors()[0].Host.ID)
	if len(ca) != len(cb) || ca[0] != cb[0] {
		t.Error("calibration not deterministic")
	}
}

func TestEuropeanSkew(t *testing.T) {
	c := buildSmall(t)
	byCont := map[worldmap.Continent]int{}
	for _, lm := range c.All() {
		byCont[worldmap.ByCode(lm.Host.Country).Continent]++
	}
	if eu := byCont[worldmap.Europe]; eu < len(c.All())/3 {
		t.Errorf("Europe has %d of %d landmarks; expected the paper's European skew", eu, len(c.All()))
	}
	// At least five continent groups should be populated.
	if populated := len(byCont); populated < 5 {
		t.Errorf("only %d continents populated", populated)
	}
}

func TestCalibrationShape(t *testing.T) {
	c := buildSmall(t)
	a0 := c.Anchors()[0]
	pts := c.Calibration(a0.Host.ID)
	// 3 samples per pair, all kept.
	if want := (len(c.Anchors()) - 1) * 3; len(pts) != want {
		t.Fatalf("calibration has %d points, want %d", len(pts), want)
	}
	pairs := c.CalibrationPairs(a0.Host.ID)
	if len(pairs) != len(c.Anchors())-1 {
		t.Fatalf("pairs = %d, want %d", len(pairs), len(c.Anchors())-1)
	}
	for _, p := range pairs {
		if len(p.RTTms) != 3 {
			t.Fatalf("pair has %d samples", len(p.RTTms))
		}
		min := p.MinRTTms()
		for _, v := range p.RTTms {
			if v < min {
				t.Fatal("MinRTTms not minimal")
			}
		}
	}
	for _, p := range pts {
		if p.X < 0 || p.X > geo.HalfEquatorKm+10 {
			t.Errorf("bad distance %f", p.X)
		}
		if p.Y <= 0 {
			t.Errorf("non-positive RTT %f", p.Y)
		}
		// Physical floor: RTT ≥ 2·dist/200.
		if p.Y < 2*p.X/geo.BaselineSpeedKmPerMs-1e-9 {
			t.Errorf("calibration point (%.0f km, %.1f ms) violates the physical floor", p.X, p.Y)
		}
	}
}

func TestProbesHaveNoCalibration(t *testing.T) {
	c := buildSmall(t)
	if pts := c.Calibration(c.Probes()[0].Host.ID); pts != nil {
		t.Error("probes should have no mesh calibration")
	}
}

func TestPooled(t *testing.T) {
	c := buildSmall(t)
	pooled := c.Pooled()
	want := len(c.Anchors()) * (len(c.Anchors()) - 1) * 3
	if len(pooled) != want {
		t.Errorf("pooled size %d, want %d", len(pooled), want)
	}
}

func TestLandmarkLookup(t *testing.T) {
	c := buildSmall(t)
	a0 := c.Anchors()[0]
	if lm := c.Landmark(a0.Host.ID); lm != a0 {
		t.Error("Landmark lookup failed")
	}
	if c.Landmark("nope") != nil {
		t.Error("unknown landmark should be nil")
	}
}

func TestRefreshCalibrationChangesSamples(t *testing.T) {
	c := buildSmall(t)
	id := c.Anchors()[0].Host.ID
	var before []float64
	for _, p := range c.Calibration(id) {
		before = append(before, p.Y)
	}
	c.RefreshCalibration(3, rand.New(rand.NewSource(99)))
	var changed bool
	for i, p := range c.Calibration(id) {
		if p.Y != before[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Error("refresh with a different rng should change at least one sample")
	}
}

func TestLandmarkCountriesAreReal(t *testing.T) {
	c := buildSmall(t)
	for _, lm := range c.All() {
		if worldmap.ByCode(lm.Host.Country) == nil {
			t.Errorf("landmark %s has unknown country %q", lm.Host.ID, lm.Host.Country)
		}
	}
}

func TestChurn(t *testing.T) {
	net := netsim.New(55)
	rng := rand.New(rand.NewSource(55))
	c, err := Build(net, Config{Anchors: 30, Probes: 10, SamplesPerPair: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's experience: 12 decommissioned, 61 added over the run.
	dropped := c.Decommission(5, rng)
	if len(dropped) != 5 {
		t.Fatalf("dropped %d", len(dropped))
	}
	if len(c.Anchors()) != 25 {
		t.Errorf("anchors = %d", len(c.Anchors()))
	}
	for _, id := range dropped {
		if c.Landmark(id) != nil {
			t.Errorf("decommissioned %s still a landmark", id)
		}
		if c.Calibration(id) != nil {
			t.Errorf("decommissioned %s still has calibration", id)
		}
		// The host still exists on the network.
		if net.Host(id) == nil {
			t.Errorf("decommissioned %s vanished from the network", id)
		}
	}

	added, err := c.AddAnchors(8, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 8 || len(c.Anchors()) != 33 {
		t.Fatalf("added %d, anchors %d", len(added), len(c.Anchors()))
	}
	// New anchors have no calibration until a refresh.
	if c.Calibration(added[0]) != nil {
		t.Error("new anchor calibrated before refresh")
	}
	c.RefreshCalibration(2, rng)
	if len(c.Calibration(added[0])) == 0 {
		t.Error("new anchor still uncalibrated after refresh")
	}
	// Decommissioned anchors are not mesh peers anymore.
	for _, p := range c.CalibrationPairs(added[0]) {
		for _, id := range dropped {
			if p.Peer == id {
				t.Errorf("mesh still pings decommissioned %s", id)
			}
		}
	}
}

func BenchmarkBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net := netsim.New(7)
		_, _ = Build(net, Config{Anchors: 60, Probes: 60, SamplesPerPair: 2}, rand.New(rand.NewSource(7)))
	}
}

// TestLongChurnUniqueIDs is the regression test for the AddAnchors ID
// bug: minting IDs from rng.Intn(1_000_000) collides after a few
// hundred churn rounds (birthday bound ≈ 1180 draws for even odds),
// silently overwriting byID entries while the network rejected the
// duplicate host. The monotonic counter must survive sustained churn
// with every minted ID unique and registered.
func TestLongChurnUniqueIDs(t *testing.T) {
	net := netsim.New(56)
	rng := rand.New(rand.NewSource(56))
	c, err := Build(net, Config{Anchors: 40, Probes: 0, SamplesPerPair: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[netsim.HostID]bool{}
	epoch := c.Epoch()
	for round := 0; round < 400; round++ {
		c.Decommission(2, rng)
		added, err := c.AddAnchors(2, rng)
		if err != nil {
			t.Fatalf("round %d: AddAnchors: %v", round, err)
		}
		for _, id := range added {
			if seen[id] {
				t.Fatalf("round %d: anchor ID %s minted twice", round, id)
			}
			seen[id] = true
			if c.Landmark(id) == nil {
				t.Fatalf("round %d: added anchor %s missing from byID", round, id)
			}
			if net.Host(id) == nil {
				t.Fatalf("round %d: added anchor %s missing from the network", round, id)
			}
		}
		if e := c.Epoch(); e <= epoch {
			t.Fatalf("round %d: epoch did not advance (%d → %d)", round, epoch, e)
		} else {
			epoch = e
		}
	}
	if len(seen) != 800 {
		t.Fatalf("minted %d distinct IDs, want 800", len(seen))
	}
	if got := len(c.Anchors()); got != 40 {
		t.Fatalf("anchors = %d after balanced churn, want 40", got)
	}
}

// TestEpochTracksCalibration: RefreshCalibration alone must advance the
// epoch, since recalibration changes every landmark's delay model.
func TestEpochTracksCalibration(t *testing.T) {
	net := netsim.New(57)
	rng := rand.New(rand.NewSource(57))
	c, err := Build(net, Config{Anchors: 10, Probes: 0, SamplesPerPair: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	before := c.Epoch()
	if before == 0 {
		t.Fatal("built constellation has epoch 0; Build's calibration should have bumped it")
	}
	c.RefreshCalibration(1, rng)
	if after := c.Epoch(); after != before+1 {
		t.Fatalf("epoch %d → %d across RefreshCalibration, want +1", before, after)
	}
}

// TestByContinentTracksLandmarkSet: Select draws from a grouping equal
// to a fresh grouping of All by continent, slice order included, after
// Build, Decommission and AddAnchors — also when AddAnchors stops at a
// duplicate host partway through.
func TestByContinentTracksLandmarkSet(t *testing.T) {
	c := buildSmall(t)
	check := func(step string) {
		t.Helper()
		want := map[worldmap.Continent][]*Landmark{}
		for _, lm := range c.All() {
			if wc := worldmap.ByCode(lm.Host.Country); wc != nil {
				want[wc.Continent] = append(want[wc.Continent], lm)
			}
		}
		for _, cont := range worldmap.AllContinents() {
			if !checkSelect(t, c, cont, want[cont]) {
				t.Fatalf("after %s", step)
			}
		}
	}
	check("Build")
	rng := rand.New(rand.NewSource(3))
	c.Decommission(5, rng)
	check("Decommission")
	if _, err := c.AddAnchors(4, rng); err != nil {
		t.Fatal(err)
	}
	check("AddAnchors")
	c.RefreshCalibration(1, rng)
	check("RefreshCalibration")
	// The next minted ID is anchor-new-000004; taking 000005 first makes
	// the second of three additions fail after the first landed.
	if err := c.Net().AddHost(&netsim.Host{ID: "anchor-new-000005", Loc: geo.Point{Lat: 1, Lon: 1}}); err != nil {
		t.Fatal(err)
	}
	if ids, err := c.AddAnchors(3, rng); err == nil || len(ids) != 1 {
		t.Fatalf("AddAnchors over a taken ID: ids %v, err %v", ids, err)
	}
	check("failed AddAnchors")
}

// checkSelect pins Select to its definition over one continent's
// landmarks lms: the first min(n, len) entries of rng.Perm over the
// anchors (Phase1) or over lms (Phase2), leaving rng exactly where
// rng.Perm leaves it. It reports whether all held.
func checkSelect(t *testing.T, c *Constellation, cont worldmap.Continent, lms []*Landmark) bool {
	t.Helper()
	var anchors []*Landmark
	for _, lm := range lms {
		if lm.IsAnchor {
			anchors = append(anchors, lm)
		}
	}
	for _, ph := range []Phase{Phase1, Phase2} {
		pool := lms
		if ph == Phase1 {
			pool = anchors
		}
		for _, n := range []int{1, 3, 25, len(pool) + 1} {
			got, ref := rand.New(rand.NewSource(int64(n))), rand.New(rand.NewSource(int64(n)))
			drawn := c.Select(ph, cont, n, got)
			perm := ref.Perm(len(pool))
			if want := min(n, len(pool)); len(drawn) != want {
				t.Errorf("Select(%d, %v, %d) drew %d landmarks, want %d", ph, cont, n, len(drawn), want)
				return false
			}
			for k, lm := range drawn {
				if lm != pool[perm[k]] {
					t.Errorf("Select(%d, %v, %d)[%d] = %s, want %s", ph, cont, n, k, lm.Host.ID, pool[perm[k]].Host.ID)
					return false
				}
			}
			if got.Int63() != ref.Int63() {
				t.Errorf("Select(%d, %v, %d) left rng elsewhere than rng.Perm", ph, cont, n)
				return false
			}
		}
	}
	return true
}
