package assess

import (
	"sort"

	"activegeo/internal/worldmap"
)

// Tally aggregates verdicts the way Figure 17's top bars do.
type Tally struct {
	Credible  int `json:"credible"`
	Uncertain int `json:"uncertain"`
	False     int `json:"false"`

	// Continent-level splits of the false and uncertain cases.
	FalseOffContinent int `json:"false_off_continent"`      // false, and region doesn't even touch the claimed continent
	UncertainSameCont int `json:"uncertain_same_continent"` // uncertain, but continent credible
}

// Total returns the number of tallied results.
func (t Tally) Total() int { return t.Credible + t.Uncertain + t.False }

// Tabulate computes the overall tally from results.
func Tabulate(results []*Result) Tally {
	var t Tally
	for _, r := range results {
		t.Add(r.Verdict, r.ContVerdict)
	}
	return t
}

// Add tallies one final verdict with its continent-level verdict.
func (t *Tally) Add(v, cont Verdict) {
	switch v {
	case Credible:
		t.Credible++
	case Uncertain:
		t.Uncertain++
		if cont != False {
			t.UncertainSameCont++
		}
	case False:
		t.False++
		if cont == False {
			t.FalseOffContinent++
		}
	}
}

// CountryBar is one row of the Figure 17 country breakdown.
type CountryBar struct {
	Country string
	Count   int
}

// CountryBreakdown counts results by a key function, descending.
func CountryBreakdown(results []*Result, key func(*Result) string) []CountryBar {
	counts := map[string]int{}
	for _, r := range results {
		if k := key(r); k != "" {
			counts[k]++
		}
	}
	out := make([]CountryBar, 0, len(counts))
	for c, n := range counts {
		out = append(out, CountryBar{Country: c, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Country < out[j].Country
	})
	return out
}

// HonestyCell is one cell of the Figure 18/19 provider×country honesty
// matrices: the share of a provider's claims for one country that
// CBG++ at least partially backs up (credible or uncertain).
type HonestyCell struct {
	Provider string
	Country  string
	Claimed  int
	Backed   int // credible + uncertain
	Credible int
}

// Honesty returns the fraction of claims at least partially backed.
func (h HonestyCell) Honesty() float64 {
	if h.Claimed == 0 {
		return 0
	}
	return float64(h.Backed) / float64(h.Claimed)
}

// HonestyMatrix computes provider×country honesty cells from results.
func HonestyMatrix(results []*Result) []HonestyCell {
	type key struct{ p, c string }
	cells := map[key]*HonestyCell{}
	for _, r := range results {
		k := key{r.Provider, r.ClaimedCountry}
		cell, ok := cells[k]
		if !ok {
			cell = &HonestyCell{Provider: r.Provider, Country: r.ClaimedCountry}
			cells[k] = cell
		}
		cell.Claimed++
		if r.Verdict != False {
			cell.Backed++
		}
		if r.Verdict == Credible {
			cell.Credible++
		}
	}
	out := make([]HonestyCell, 0, len(cells))
	for _, c := range cells {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Provider != out[j].Provider {
			return out[i].Provider < out[j].Provider
		}
		return out[i].Country < out[j].Country
	})
	return out
}

// ProviderAgreement is one column of Figure 21 for the CBG++ rows: the
// share of a provider's claims our assessment agrees with, computed two
// ways.
type ProviderAgreement struct {
	Provider string
	// Generous treats uncertain verdicts as credible; Strict treats
	// them as false.
	Generous float64
	Strict   float64
}

// Agreement computes per-provider generous/strict agreement rates.
func Agreement(results []*Result) []ProviderAgreement {
	type acc struct{ total, credible, uncertain int }
	byProv := map[string]*acc{}
	for _, r := range results {
		a, ok := byProv[r.Provider]
		if !ok {
			a = &acc{}
			byProv[r.Provider] = a
		}
		a.total++
		switch r.Verdict {
		case Credible:
			a.credible++
		case Uncertain:
			a.uncertain++
		}
	}
	provs := make([]string, 0, len(byProv))
	for p := range byProv {
		provs = append(provs, p)
	}
	sort.Strings(provs)
	out := make([]ProviderAgreement, 0, len(provs))
	for _, p := range provs {
		a := byProv[p]
		if a.total == 0 {
			continue
		}
		out = append(out, ProviderAgreement{
			Provider: p,
			Generous: float64(a.credible+a.uncertain) / float64(a.total),
			Strict:   float64(a.credible) / float64(a.total),
		})
	}
	return out
}

// ConfusionMatrix counts, over uncertain predictions, how often the
// claimed key appears together with each candidate key in the same
// region — Figures 22 (continents) and 23 (countries). The key function
// maps a country code to a matrix label (itself for Figure 23, its
// continent for Figure 22).
func ConfusionMatrix(results []*Result, key func(code string) string) map[[2]string]int {
	m := map[[2]string]int{}
	for _, r := range results {
		if len(r.Candidates) < 2 {
			continue
		}
		for i, a := range r.Candidates {
			ka := key(a)
			for _, b := range r.Candidates[i:] {
				kb := key(b)
				m[[2]string{ka, kb}]++
				if ka != kb {
					m[[2]string{kb, ka}]++
				}
			}
		}
	}
	return m
}

// ContinentKey maps a country code to its continent name (for Figure 22).
func ContinentKey(code string) string {
	if c := worldmap.ByCode(code); c != nil {
		return c.Continent.String()
	}
	return "Unknown"
}
