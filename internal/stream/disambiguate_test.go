package stream

import (
	"fmt"
	"testing"

	"activegeo/internal/assess"
	"activegeo/internal/grid"
	"activegeo/internal/netsim"
)

// member is one server of a disambiguation case, as the data-center
// step left it. No candidates means an empty region: the server was
// never located.
type member struct {
	claimed    string
	candidates []string
	verdict    assess.Verdict
}

// TestResolveGroupsMatchesDisambiguateGroup: the store's columnar group
// rule (resolveGroups) and assess.DisambiguateGroup must agree on every
// member's final verdict and probable country, and on the number of
// reclassified servers, for each shape the rule distinguishes.
func TestResolveGroupsMatchesDisambiguateGroup(t *testing.T) {
	u, c, f := assess.Uncertain, assess.Credible, assess.False
	cases := []struct {
		name    string
		members []member
	}{
		{"single member", []member{
			{"DE", []string{"DE", "FR"}, u},
		}},
		{"member with empty region", []member{
			{"DE", nil, u},
			{"DE", []string{"DE", "NL"}, u},
			{"NL", []string{"DE", "NL"}, u},
		}},
		{"fewer than 2 usable", []member{
			{"DE", nil, u},
			{"FR", []string{"DE", "FR"}, u},
		}},
		{"no shared country", []member{
			{"DE", []string{"DE"}, u},
			{"FR", []string{"FR", "NL"}, u},
		}},
		{"one shared country", []member{
			{"FR", []string{"DE", "FR"}, u},
			{"DE", []string{"DE", "NL"}, u},
			{"DE", []string{"DE"}, c},
			{"NL", []string{"DE", "NL"}, f},
		}},
		{"several shared, claim inside", []member{
			{"FR", []string{"DE", "FR", "NL"}, u},
			{"DE", []string{"DE", "FR"}, u},
		}},
		{"several shared, claim outside", []member{
			{"NL", []string{"DE", "FR", "NL"}, u},
			{"DE", []string{"BE", "DE", "FR"}, u},
			{"IT", []string{"DE", "FR", "IT"}, u},
		}},
	}
	g := grid.New(10)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store := NewStore()
			results := make([]*assess.Result, len(tc.members))
			for i, m := range tc.members {
				id := netsim.HostID(fmt.Sprintf("s%d", i))
				probable := ""
				region := g.NewRegion()
				if len(m.candidates) > 0 {
					probable = m.candidates[len(m.candidates)-1]
					region.Add(i)
				}
				spec := ServerSpec{ID: id, Provider: "p", Claimed: m.claimed, GroupKey: "p/AS1/10.0.0"}
				store.setResult(store.ensure(spec), outcome{
					spec: spec, raw: m.verdict, dc: m.verdict, probable: probable,
					candidates: m.candidates, cells: region.Count(),
				})
				results[i] = &assess.Result{
					ServerID: string(id), Provider: "p", ClaimedCountry: m.claimed, Region: region,
					VerdictRaw: m.verdict, Verdict: m.verdict, ProbableCountry: probable,
					Candidates: m.candidates,
				}
			}

			uncertainBefore := countUncertain(results)
			assess.DisambiguateGroup(results)
			wantReclassified := uncertainBefore - countUncertain(results)
			store.resolveGroups()

			for _, r := range results {
				v, probable, ok := store.VerdictOf(netsim.HostID(r.ServerID))
				if !ok {
					t.Fatalf("%s missing from the store", r.ServerID)
				}
				if v != r.Verdict || probable != r.ProbableCountry {
					t.Errorf("%s: store says %s/%q, DisambiguateGroup %s/%q",
						r.ServerID, v, probable, r.Verdict, r.ProbableCountry)
				}
			}
			if got := store.Stats().ReclassifiedByGroup; got != wantReclassified {
				t.Errorf("store reclassified %d servers, DisambiguateGroup %d", got, wantReclassified)
			}
		})
	}
}

func countUncertain(rs []*assess.Result) int {
	n := 0
	for _, r := range rs {
		if r.Verdict == assess.Uncertain {
			n++
		}
	}
	return n
}
