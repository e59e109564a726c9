// Package assess implements the paper's §6 claim-assessment pipeline:
// classifying each proxy's advertised country as credible, uncertain, or
// false from its CBG++ prediction region; refining uncertain verdicts
// with data-center locations (Figure 15) and shared-AS//24 metadata
// (Figure 16); the continent-level analysis; and the aggregate honesty
// statistics behind Figures 17–19 and the confusion matrices of
// Figures 22–23.
package assess

import (
	"slices"
	"sort"

	"activegeo/internal/datacenter"
	"activegeo/internal/grid"
	"activegeo/internal/worldmap"
)

// Verdict classifies one country claim.
type Verdict uint8

// Verdicts, in the paper's vocabulary: a claim is false if the predicted
// region does not cover any part of the claimed country, credible if the
// region is entirely within it, and uncertain when the region covers the
// claimed country and others.
const (
	Credible Verdict = iota
	Uncertain
	False
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Credible:
		return "credible"
	case Uncertain:
		return "uncertain"
	case False:
		return "false"
	default:
		return "unknown"
	}
}

// Classify applies the paper's region-vs-claim rule.
func Classify(mask *worldmap.Mask, region *grid.Region, claimed string) Verdict {
	if region == nil || region.Empty() {
		return Uncertain // no usable prediction: cannot falsify
	}
	if !mask.Overlaps(region, claimed) {
		return False
	}
	if mask.Within(region, claimed) {
		return Credible
	}
	return Uncertain
}

// ContinentVerdict classifies the claim at continent granularity: does
// the region touch any country on the claimed country's continent?
func ContinentVerdict(mask *worldmap.Mask, region *grid.Region, claimed string) Verdict {
	c := worldmap.ByCode(claimed)
	if c == nil || region == nil || region.Empty() {
		return Uncertain
	}
	conts := mask.ContinentsOverlapping(region)
	touches := false
	for _, cont := range conts {
		if cont == c.Continent {
			touches = true
			break
		}
	}
	if !touches {
		return False
	}
	if len(conts) == 1 {
		return Credible
	}
	return Uncertain
}

// DisambiguateByDataCenters applies the Figure 15 refinement to an
// uncertain verdict: restrict the candidate countries to those with a
// known data center inside the region. If the claimed country is not
// among them, the claim becomes false; if it is the only one, credible.
func DisambiguateByDataCenters(region *grid.Region, claimed string, verdict Verdict) Verdict {
	if verdict != Uncertain || region == nil || region.Empty() {
		return verdict
	}
	withDC := datacenter.CountriesWithDCInRegion(region)
	if len(withDC) == 0 {
		return verdict
	}
	found := false
	for _, c := range withDC {
		if c == claimed {
			found = true
			break
		}
	}
	if !found {
		return False
	}
	if len(withDC) == 1 {
		return Credible
	}
	return Uncertain
}

// Result is the full assessment of one server's claim.
type Result struct {
	ServerID       string
	Provider       string
	ClaimedCountry string
	Region         *grid.Region

	// VerdictRaw is the pure region-vs-claim verdict; Verdict includes
	// the data-center and metadata disambiguation steps.
	VerdictRaw Verdict
	Verdict    Verdict

	// ContVerdict is the continent-level verdict (after disambiguation
	// the continent verdict of a reclassified claim follows suit).
	ContVerdict Verdict

	// ProbableCountry is the candidate country owning the largest share
	// of the region (used for the Figure 17 "probable country" bars and
	// the Figures 22–23 confusion matrices).
	ProbableCountry string
	// Candidates is every country the region overlaps, sorted.
	Candidates []string

	// ManipulationSuspected is the adversary-detection verdict dimension:
	// the measurement pattern of this server looks manipulated (decoy
	// rewrite, selective inflation/deflation or a constant shift). It is
	// orthogonal to the claim verdict — a manipulated server's claim can
	// still be classified, but the classification shouldn't be trusted.
	// Only set when the detection layer runs (the adversary plan is
	// armed); plain audits leave all three fields zero.
	ManipulationSuspected bool
	// ManipulationScore is the strongest detector's signal-to-threshold
	// ratio (>1 means suspected).
	ManipulationScore float64
	// ManipulationReasons names the tripped detectors in canonical order.
	ManipulationReasons []string
}

// Assess produces the raw (pre-metadata) assessment for one server.
func Assess(mask *worldmap.Mask, region *grid.Region, serverID, provider, claimed string) *Result {
	r := &Result{
		ServerID:       serverID,
		Provider:       provider,
		ClaimedCountry: claimed,
		Region:         region,
	}
	r.VerdictRaw = Classify(mask, region, claimed)
	r.Verdict = DisambiguateByDataCenters(region, claimed, r.VerdictRaw)
	r.ContVerdict = ContinentVerdict(mask, region, claimed)
	if region != nil && !region.Empty() {
		r.Candidates = mask.CountriesOverlapping(region)
		r.ProbableCountry = probableCountry(mask, region)
	}
	return r
}

// probableCountry returns the country owning the largest area share of
// the region.
func probableCountry(mask *worldmap.Mask, region *grid.Region) string {
	areas := map[string]float64{}
	g := region.Grid()
	region.Each(func(i int) {
		if code := mask.CountryOfCell(i); code != "" {
			areas[code] += g.CellArea(i)
		}
	})
	best, bestArea := "", -1.0
	codes := make([]string, 0, len(areas))
	for c := range areas {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	for _, c := range codes {
		if areas[c] > bestArea {
			best, bestArea = c, areas[c]
		}
	}
	return best
}

// DisambiguateGroup applies the Figure 16 metadata refinement to a group
// of servers known (by shared provider, AS and /24) to be in one
// physical location: every uncertain member with a region is
// re-evaluated against the countries all the group's regions share.
func DisambiguateGroup(group []*Result) {
	var sets [][]string
	for _, r := range group {
		if located(r) {
			sets = append(sets, r.Candidates)
		}
	}
	shared := GroupShared(sets)
	if len(shared) == 0 {
		return
	}
	for _, r := range group {
		if located(r) && r.Verdict == Uncertain {
			r.Verdict, r.ProbableCountry = Regroup(r.ClaimedCountry, shared)
		}
	}
}

// located reports whether the server has a non-empty region. A located
// server whose region overlaps no country (open sea) still counts, so
// it leaves its group nothing to share.
func located(r *Result) bool { return r.Region != nil && !r.Region.Empty() }

// GroupShared returns, sorted, the countries in every candidate set of a
// group's located members, or nil when fewer than two are located.
func GroupShared(sets [][]string) []string {
	if len(sets) < 2 {
		return nil
	}
	var shared []string
	for _, c := range sets[0] {
		inAll := true
		for _, set := range sets[1:] {
			if !slices.Contains(set, c) {
				inAll = false
				break
			}
		}
		if inAll {
			shared = append(shared, c)
		}
	}
	sort.Strings(shared)
	return shared
}

// Regroup re-evaluates one uncertain located member's claim against its
// group's non-empty shared countries: false if the claim is outside
// them, credible if it is the only one, uncertain otherwise. The
// probable country becomes the first shared country.
func Regroup(claimed string, shared []string) (Verdict, string) {
	switch {
	case !slices.Contains(shared, claimed):
		return False, shared[0]
	case len(shared) == 1:
		return Credible, shared[0]
	}
	return Uncertain, shared[0]
}
