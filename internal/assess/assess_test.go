package assess

import (
	"sync"
	"testing"

	"activegeo/internal/geo"
	"activegeo/internal/grid"
	"activegeo/internal/worldmap"
)

var (
	maskOnce sync.Once
	gridFix  *grid.Grid
	maskFix  *worldmap.Mask
)

func fixture(t testing.TB) (*grid.Grid, *worldmap.Mask) {
	t.Helper()
	maskOnce.Do(func() {
		gridFix = grid.New(1.5)
		maskFix = worldmap.NewMask(gridFix)
	})
	return gridFix, maskFix
}

// regionAround builds a land-clipped cap region.
func regionAround(g *grid.Grid, m *worldmap.Mask, p geo.Point, radiusKm float64) *grid.Region {
	r := g.CapRegion(geo.Cap{Center: p, RadiusKm: radiusKm})
	land := r.Clone()
	land.IntersectWith(m.LandRef())
	if land.Empty() {
		return r
	}
	return land
}

func TestClassifyCredible(t *testing.T) {
	g, m := fixture(t)
	berlin := regionAround(g, m, geo.Point{Lat: 52.52, Lon: 13.405}, 120)
	if v := Classify(m, berlin, "de"); v != Credible {
		t.Errorf("Berlin region vs de = %v", v)
	}
}

func TestClassifyFalse(t *testing.T) {
	g, m := fixture(t)
	berlin := regionAround(g, m, geo.Point{Lat: 52.52, Lon: 13.405}, 120)
	if v := Classify(m, berlin, "kp"); v != False {
		t.Errorf("Berlin region vs North Korea = %v", v)
	}
}

func TestClassifyUncertain(t *testing.T) {
	g, m := fixture(t)
	benelux := regionAround(g, m, geo.Point{Lat: 50.8, Lon: 4.4}, 450)
	if v := Classify(m, benelux, "be"); v != Uncertain {
		t.Errorf("Benelux-scale region vs be = %v", v)
	}
	// Empty region → uncertain.
	if v := Classify(m, g.NewRegion(), "de"); v != Uncertain {
		t.Errorf("empty region = %v", v)
	}
}

func TestContinentVerdict(t *testing.T) {
	g, m := fixture(t)
	benelux := regionAround(g, m, geo.Point{Lat: 50.8, Lon: 4.4}, 450)
	if v := ContinentVerdict(m, benelux, "kp"); v != False {
		t.Errorf("European region vs Asian claim = %v", v)
	}
	if v := ContinentVerdict(m, benelux, "pl"); v == False {
		t.Errorf("European region vs European claim = %v", v)
	}
}

func TestDisambiguateByDataCenters(t *testing.T) {
	g, m := fixture(t)
	// The Figure 15 scenario transplanted: a region covering Chile and
	// Argentina's border area. Data centers exist in Santiago but not in
	// the Argentine part of the region.
	r := regionAround(g, m, geo.Point{Lat: -33.45, Lon: -70.0}, 350)
	if v := Classify(m, r, "ar"); v != Uncertain {
		t.Skipf("region not uncertain (got %v); geometry too coarse for this fixture", v)
	}
	after := DisambiguateByDataCenters(r, "ar", Uncertain)
	if after != False {
		t.Errorf("Argentina claim with only Chilean DCs in region = %v, want false", after)
	}
	afterCl := DisambiguateByDataCenters(r, "cl", Uncertain)
	if afterCl != Credible {
		t.Errorf("Chile claim with only Chilean DCs = %v, want credible", afterCl)
	}
	// Non-uncertain verdicts pass through untouched.
	if DisambiguateByDataCenters(r, "ar", False) != False {
		t.Error("false must stay false")
	}
}

func TestAssessEndToEnd(t *testing.T) {
	g, m := fixture(t)
	berlin := regionAround(g, m, geo.Point{Lat: 52.52, Lon: 13.405}, 120)
	r := Assess(m, berlin, "srv1", "A", "de")
	if r.Verdict != Credible || r.VerdictRaw != Credible {
		t.Errorf("verdicts: %v / %v", r.VerdictRaw, r.Verdict)
	}
	if r.ProbableCountry != "de" {
		t.Errorf("probable country %q", r.ProbableCountry)
	}
	if len(r.Candidates) == 0 {
		t.Error("no candidates")
	}
}

func TestDisambiguateGroup(t *testing.T) {
	g, m := fixture(t)
	// Figure 16: a group of servers in one Toronto data center; regions
	// straddle the US-Canada border but all cover part of Canada.
	toronto := geo.Point{Lat: 43.65, Lon: -79.38}
	mk := func(radius float64, claimed string) *Result {
		return Assess(m, regionAround(g, m, toronto, radius), "s", "B", claimed)
	}
	group := []*Result{mk(300, "ca"), mk(500, "ca"), mk(420, "us"), mk(380, "ca")}
	// Pre-state: regions of 300+ km around Toronto cover both countries.
	for i, r := range group {
		if r.VerdictRaw != Uncertain {
			t.Skipf("member %d not uncertain (%v); fixture geometry too coarse", i, r.VerdictRaw)
		}
	}
	DisambiguateGroup(group)
	// The common intersection around Toronto is Canadian (plus US): both
	// countries are common, so claims stay; but if only Canada were
	// common, us claims would flip. Directly test the sharper scenario:
	near := []*Result{mk(120, "ca"), mk(150, "us")}
	if near[0].VerdictRaw == Uncertain || near[1].VerdictRaw == Uncertain {
		DisambiguateGroup(near)
	}
	// Construct the canonical case manually: two regions whose common
	// candidates are only Canada.
	a := Assess(m, regionAround(g, m, geo.Point{Lat: 45.42, Lon: -75.70}, 140), "x", "B", "us") // Ottawa
	b := Assess(m, regionAround(g, m, toronto, 450), "y", "B", "us")
	if a.VerdictRaw == False {
		// Ottawa region doesn't touch the US at all: already false.
		if a.Verdict != False {
			t.Errorf("expected false, got %v", a.Verdict)
		}
	}
	grp := []*Result{a, b}
	DisambiguateGroup(grp)
	if b.Verdict == Uncertain {
		// b's candidates include both; common set is a's candidates ∩
		// b's. If the intersection excludes "us", b must have flipped.
		common := intersect(a.Candidates, b.Candidates)
		hasUS := false
		for _, c := range common {
			if c == "us" {
				hasUS = true
			}
		}
		if !hasUS && len(common) > 0 {
			t.Errorf("group sharing only Canada left a us claim uncertain")
		}
	}
}

func intersect(a, b []string) []string {
	set := map[string]bool{}
	for _, x := range a {
		set[x] = true
	}
	var out []string
	for _, x := range b {
		if set[x] {
			out = append(out, x)
		}
	}
	return out
}

func TestDisambiguateGroupDirect(t *testing.T) {
	g, m := fixture(t)
	// Construct the Figure 16 situation synthetically: three members of
	// one AS//24 group. Their regions all cover Canada; only some also
	// cross into the US. The common ground is Canada alone, so the
	// us-claiming member flips to false and ca members to credible.
	ottawa := geo.Point{Lat: 45.42, Lon: -75.70}
	toronto := geo.Point{Lat: 43.65, Lon: -79.38}

	caOnly := regionAround(g, m, ottawa, 150) // within Canada
	crossBorder := regionAround(g, m, toronto, 400)

	mk := func(region *grid.Region, claimed string) *Result {
		return Assess(m, region, "s", "B", claimed)
	}
	a := mk(caOnly, "ca")
	b := mk(crossBorder, "ca")
	c := mk(crossBorder, "us")
	if a.VerdictRaw != Credible {
		t.Skipf("fixture geometry: Ottawa region %v", a.VerdictRaw)
	}
	// Force the uncertain starting state for the cross-border members so
	// the group logic (not the DC disambiguator) is under test.
	b.Verdict, c.Verdict = Uncertain, Uncertain

	DisambiguateGroup([]*Result{a, b, c})
	common := intersect(a.Candidates, intersect(b.Candidates, c.Candidates))
	if len(common) == 1 && common[0] == "ca" {
		if b.Verdict != Credible {
			t.Errorf("ca claim in a Canada-only group = %v", b.Verdict)
		}
		if c.Verdict != False {
			t.Errorf("us claim in a Canada-only group = %v", c.Verdict)
		}
		if b.ProbableCountry != "ca" || c.ProbableCountry != "ca" {
			t.Errorf("probable countries %q/%q", b.ProbableCountry, c.ProbableCountry)
		}
	} else {
		// Even if the fixture's common set is wider, the group pass must
		// never *introduce* uncertainty or flip non-uncertain verdicts.
		if a.Verdict != Credible {
			t.Errorf("credible member mutated to %v", a.Verdict)
		}
	}

	// Degenerate inputs are no-ops.
	solo := mk(caOnly, "ca")
	DisambiguateGroup([]*Result{solo})
	empty1 := &Result{Verdict: Uncertain}
	empty2 := &Result{Verdict: Uncertain}
	DisambiguateGroup([]*Result{empty1, empty2})
	if empty1.Verdict != Uncertain {
		t.Error("empty-region group members must not change")
	}
}

// TestDisambiguateGroupShapes: the Figure 16 group rule on each shape it
// distinguishes. Every member starts with the last of its candidates as
// its probable country.
func TestDisambiguateGroupShapes(t *testing.T) {
	u, c, f := Uncertain, Credible, False
	sea := []string{} // located, but the region overlaps no country
	type member struct {
		claimed    string
		candidates []string // nil: no region
		verdict    Verdict
		want       Verdict
		probable   string // after the rule
	}
	cases := []struct {
		name    string
		members []member
	}{
		{"single member", []member{
			{"DE", []string{"DE", "FR"}, u, u, "FR"},
		}},
		{"member with empty region", []member{
			{"DE", nil, u, u, ""},
			{"DE", []string{"DE", "NL"}, u, u, "DE"},
			{"NL", []string{"DE", "NL"}, u, u, "DE"},
		}},
		{"fewer than 2 usable", []member{
			{"DE", nil, u, u, ""},
			{"FR", []string{"DE", "FR"}, u, u, "FR"},
		}},
		{"no shared country", []member{
			{"DE", []string{"DE"}, u, u, "DE"},
			{"FR", []string{"FR", "NL"}, u, u, "NL"},
		}},
		{"one shared country", []member{
			{"FR", []string{"DE", "FR"}, u, f, "DE"},
			{"DE", []string{"DE", "NL"}, u, c, "DE"},
			{"DE", []string{"DE"}, c, c, "DE"},
			{"NL", []string{"DE", "NL"}, f, f, "NL"},
		}},
		{"several shared, claim inside", []member{
			{"FR", []string{"DE", "FR", "NL"}, u, u, "DE"},
			{"DE", []string{"DE", "FR"}, u, u, "DE"},
		}},
		{"several shared, claim outside", []member{
			{"NL", []string{"DE", "FR", "NL"}, u, f, "DE"},
			{"DE", []string{"BE", "DE", "FR"}, u, u, "DE"},
			{"IT", []string{"DE", "FR", "IT"}, u, f, "DE"},
		}},
		// Counting only members with candidates as located would share
		// DE here, making the first member credible and the second false.
		{"located member overlapping no country", []member{
			{"DE", []string{"DE", "FR"}, u, u, "FR"},
			{"FR", []string{"DE"}, u, u, "DE"},
			{"DE", sea, u, u, ""},
		}},
	}
	g := grid.New(10)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			group := make([]*Result, len(tc.members))
			for i, m := range tc.members {
				r := &Result{ClaimedCountry: m.claimed, Region: g.NewRegion(), Verdict: m.verdict, Candidates: m.candidates}
				if m.candidates != nil {
					r.Region.Add(i)
				}
				if n := len(m.candidates); n > 0 {
					r.ProbableCountry = m.candidates[n-1]
				}
				group[i] = r
			}
			DisambiguateGroup(group)
			for i, m := range tc.members {
				if r := group[i]; r.Verdict != m.want || r.ProbableCountry != m.probable {
					t.Errorf("member %d: %s/%q, want %s/%q", i, r.Verdict, r.ProbableCountry, m.want, m.probable)
				}
			}
		})
	}
}

func TestTabulate(t *testing.T) {
	results := []*Result{
		{Verdict: Credible},
		{Verdict: Uncertain, ContVerdict: Credible},
		{Verdict: Uncertain, ContVerdict: False},
		{Verdict: False, ContVerdict: False},
		{Verdict: False, ContVerdict: Uncertain},
	}
	tl := Tabulate(results)
	if tl.Credible != 1 || tl.Uncertain != 2 || tl.False != 2 {
		t.Errorf("tally %+v", tl)
	}
	if tl.FalseOffContinent != 1 {
		t.Errorf("false off-continent = %d", tl.FalseOffContinent)
	}
	if tl.UncertainSameCont != 1 {
		t.Errorf("uncertain same-continent = %d", tl.UncertainSameCont)
	}
	if tl.Total() != 5 {
		t.Errorf("total = %d", tl.Total())
	}
}

func TestCountryBreakdown(t *testing.T) {
	results := []*Result{
		{ClaimedCountry: "us"}, {ClaimedCountry: "us"}, {ClaimedCountry: "de"},
	}
	bars := CountryBreakdown(results, func(r *Result) string { return r.ClaimedCountry })
	if len(bars) != 2 || bars[0].Country != "us" || bars[0].Count != 2 {
		t.Errorf("bars %v", bars)
	}
}

func TestHonestyMatrix(t *testing.T) {
	results := []*Result{
		{Provider: "A", ClaimedCountry: "us", Verdict: Credible},
		{Provider: "A", ClaimedCountry: "us", Verdict: False},
		{Provider: "A", ClaimedCountry: "kp", Verdict: False},
	}
	cells := HonestyMatrix(results)
	if len(cells) != 2 {
		t.Fatalf("cells %v", cells)
	}
	var us HonestyCell
	for _, c := range cells {
		if c.Country == "us" {
			us = c
		}
	}
	if us.Claimed != 2 || us.Backed != 1 || us.Credible != 1 {
		t.Errorf("us cell %+v", us)
	}
	if h := us.Honesty(); h != 0.5 {
		t.Errorf("honesty %f", h)
	}
	if (HonestyCell{}).Honesty() != 0 {
		t.Error("empty cell honesty should be 0")
	}
}

func TestAgreement(t *testing.T) {
	results := []*Result{
		{Provider: "A", Verdict: Credible},
		{Provider: "A", Verdict: Uncertain},
		{Provider: "A", Verdict: False},
		{Provider: "B", Verdict: Credible},
	}
	ag := Agreement(results)
	if len(ag) != 2 {
		t.Fatalf("agreement %v", ag)
	}
	a := ag[0]
	if a.Provider != "A" {
		t.Fatalf("order %v", ag)
	}
	if a.Generous < 0.66 || a.Generous > 0.67 {
		t.Errorf("generous %f", a.Generous)
	}
	if a.Strict < 0.33 || a.Strict > 0.34 {
		t.Errorf("strict %f", a.Strict)
	}
}

func TestConfusionMatrix(t *testing.T) {
	results := []*Result{
		{Candidates: []string{"be", "de", "nl"}},
		{Candidates: []string{"be", "nl"}},
		{Candidates: []string{"us"}}, // single candidate: ignored
	}
	m := ConfusionMatrix(results, func(c string) string { return c })
	if m[[2]string{"be", "nl"}] != 2 {
		t.Errorf("be-nl = %d", m[[2]string{"be", "nl"}])
	}
	if m[[2]string{"nl", "be"}] != 2 {
		t.Errorf("nl-be = %d", m[[2]string{"nl", "be"}])
	}
	if m[[2]string{"be", "de"}] != 1 {
		t.Errorf("be-de = %d", m[[2]string{"be", "de"}])
	}
	// Continent keying.
	cm := ConfusionMatrix(results, ContinentKey)
	if cm[[2]string{"Europe", "Europe"}] == 0 {
		t.Error("Europe-Europe confusion missing")
	}
	if ContinentKey("zz") != "Unknown" {
		t.Error("unknown country key")
	}
}

func TestClassifyMonotoneUnderShrinking(t *testing.T) {
	// Property: shrinking a region can never un-falsify a claim, and a
	// credible claim stays credible for any nonempty subregion.
	g, m := fixture(t)
	centers := []geo.Point{
		{Lat: 52.52, Lon: 13.405}, {Lat: 40.71, Lon: -74.01}, {Lat: -33.87, Lon: 151.21},
		{Lat: 35.68, Lon: 139.65}, {Lat: 48.86, Lon: 2.35}, {Lat: 1.35, Lon: 103.82},
	}
	claims := []string{"de", "us", "au", "jp", "fr", "sg", "kp", "br"}
	for _, center := range centers {
		for _, claim := range claims {
			big := regionAround(g, m, center, 900)
			small := regionAround(g, m, center, 250)
			// Ensure small ⊆ big (land clipping preserves subset).
			sub := small.Clone()
			sub.SubtractWith(big)
			if !sub.Empty() {
				continue
			}
			vb := Classify(m, big, claim)
			vs := Classify(m, small, claim)
			if vb == False && vs != False {
				t.Errorf("%v/%s: big false but small %v", center, claim, vs)
			}
			if vb == Credible && vs != Credible && !small.Empty() {
				t.Errorf("%v/%s: big credible but small %v", center, claim, vs)
			}
		}
	}
}

func TestVerdictString(t *testing.T) {
	if Credible.String() != "credible" || Uncertain.String() != "uncertain" || False.String() != "false" {
		t.Error("verdict strings")
	}
	if Verdict(9).String() != "unknown" {
		t.Error("out-of-range verdict")
	}
}
