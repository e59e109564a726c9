// Package proxy models the commercial VPN ecosystem the paper audits
// (§6): seven providers (anonymized A–G) with claimed server countries,
// the ground-truth placement of their servers in data centers, the
// behavioral quirks that make proxies hard to measure (ICMP blocking,
// time-exceeded dropping, port filtering), and the wider provider market
// of Figure 14.
//
// The package also contains a real TCP forwarding proxy (forward.go)
// that can be run on a live network, so the measurement pipeline can be
// demonstrated outside the simulator.
package proxy

import (
	"fmt"
	"math/rand"
	"sort"

	"activegeo/internal/datacenter"
	"activegeo/internal/geo"
	"activegeo/internal/netsim"
	"activegeo/internal/worldmap"
)

// Server is one proxy server: a simulated host plus the provider's claim
// about it and the ground truth.
type Server struct {
	Host           *netsim.Host
	Provider       string
	Hostname       string // round-robin DNS name the provider advertises
	ClaimedCountry string // ISO code
	TrueCountry    string // ISO code (ground truth, hidden from the pipeline)
}

// Provider is one VPN service.
type Provider struct {
	Name    string // "A" … "G"
	Claims  []string
	Servers []*Server
	// Honesty is the construction parameter: the probability that a
	// server's true location matches its claim when hosting there is
	// possible. Exposed for experiment reporting only.
	Honesty float64
}

// Fleet is the full simulated proxy ecosystem.
type Fleet struct {
	Providers []*Provider
	net       *netsim.Network
}

// Config controls fleet construction.
type Config struct {
	// TotalServers across all providers (paper: 2269 unique IPs).
	TotalServers int
	// ICMPBlockFraction is the share of servers ignoring ping (paper:
	// roughly 90%).
	ICMPBlockFraction float64
	// DropTimeExceededFraction is the share of servers through which
	// traceroute is impossible (paper: roughly a third).
	DropTimeExceededFraction float64
}

// DefaultConfig matches the paper's scale.
func DefaultConfig() Config {
	return Config{
		TotalServers:             2269,
		ICMPBlockFraction:        0.90,
		DropTimeExceededFraction: 0.33,
	}
}

// providerSpec is the construction recipe for the seven studied
// providers. Claim breadths follow Figure 14 (A–E among the 20 broadest
// claimants — A claiming all but a few sovereign states — F and G
// modest); honesty follows the per-provider patterns of Figures 18/19
// (provider A "especially misleading").
var providerSpec = []struct {
	name    string
	claimed int     // number of claimed countries
	share   float64 // share of the total fleet
	honesty float64
}{
	{"A", 190, 0.22, 0.50},
	{"B", 120, 0.18, 0.45},
	{"C", 95, 0.17, 0.65},
	{"D", 80, 0.15, 0.72},
	{"E", 60, 0.12, 0.50},
	{"F", 34, 0.09, 0.75},
	{"G", 26, 0.07, 0.82},
}

// hostingWeight gives popular hosting countries their Figure 17 pull:
// when a claim is dishonest (or unhostable), the server actually lands
// in one of these.
var hostingWeight = map[string]float64{
	"us": 30, "de": 14, "nl": 10, "gb": 10, "fr": 7, "cz": 6,
	"ca": 5, "sg": 4, "jp": 4, "au": 3, "se": 3, "ch": 2,
	"pl": 2, "es": 2, "it": 2, "ro": 2, "ru": 2, "hk": 2,
	"br": 1, "za": 1, "in": 1, "mx": 1,
}

// BuildFleet constructs the seven providers and their servers inside
// net. All placement randomness comes from rng.
func BuildFleet(net *netsim.Network, cfg Config, rng *rand.Rand) (*Fleet, error) {
	if cfg.TotalServers < len(providerSpec) {
		return nil, fmt.Errorf("proxy: need at least %d servers", len(providerSpec))
	}
	f := &Fleet{net: net}

	countries := worldmap.Countries()
	// Popular claims first: everyone claims the big hosting countries,
	// then each provider extends down a shuffled long tail.
	popular := datacenter.HostingCountries()

	asnNext := 60000
	dcASN := map[string]map[string]int{}    // provider → dc → asn
	dcPrefix := map[string]map[string]int{} // provider → dc → prefix counter
	serverSeq := 0

	for _, spec := range providerSpec {
		p := &Provider{Name: spec.name, Honesty: spec.honesty}

		// Claim list: the popular countries plus a random sample of the
		// rest, up to the spec breadth.
		claimSet := map[string]bool{}
		for _, c := range popular {
			if len(claimSet) >= spec.claimed {
				break
			}
			claimSet[c] = true
		}
		perm := rng.Perm(len(countries))
		for _, i := range perm {
			if len(claimSet) >= spec.claimed {
				break
			}
			claimSet[countries[i].Code] = true
		}
		for c := range claimSet {
			p.Claims = append(p.Claims, c)
		}
		sort.Strings(p.Claims)

		// Server claims are weighted toward the popular countries, as in
		// Figure 17: the ten most-claimed countries account for the bulk
		// of advertised servers, with the long tail of exotic claims
		// carrying only a few servers each.
		claimWeights := make([]float64, len(p.Claims))
		var claimTotal float64
		for i, c := range p.Claims {
			w := hostingWeight[c]
			if w == 0 {
				w = 0.25
			}
			claimWeights[i] = w
			claimTotal += w
		}
		pickClaim := func() string {
			x := rng.Float64() * claimTotal
			for i, w := range claimWeights {
				x -= w
				if x <= 0 {
					return p.Claims[i]
				}
			}
			return p.Claims[len(p.Claims)-1]
		}

		n := int(float64(cfg.TotalServers)*spec.share + 0.5)
		for i := 0; i < n; i++ {
			claimed := pickClaim()
			trueCountry := claimed
			honest := rng.Float64() < spec.honesty
			dcs := datacenter.InCountry(claimed)
			if !honest || len(dcs) == 0 {
				trueCountry = pickHostingCountry(rng)
				dcs = datacenter.InCountry(trueCountry)
			}
			dc := dcs[rng.Intn(len(dcs))]

			if dcASN[p.Name] == nil {
				dcASN[p.Name] = map[string]int{}
				dcPrefix[p.Name] = map[string]int{}
			}
			asn, ok := dcASN[p.Name][dc.ID]
			if !ok {
				asn = asnNext
				asnNext++
				dcASN[p.Name][dc.ID] = asn
			}
			// A handful of /24s per provider+DC; servers cluster in them.
			prefixIdx := dcPrefix[p.Name][dc.ID]
			if rng.Float64() < 0.2 {
				dcPrefix[p.Name][dc.ID]++
				prefixIdx++
			}
			prefix := fmt.Sprintf("10.%d.%d", asn%250, prefixIdx%250)

			// Scatter within ~15 km of the DC.
			loc := geo.DestinationPoint(dc.Loc, rng.Float64()*360, rng.Float64()*15)
			serverSeq++
			host := &netsim.Host{
				ID:                netsim.HostID(fmt.Sprintf("vpn-%s-%04d", p.Name, serverSeq)),
				Addr:              fmt.Sprintf("%s.%d", prefix, serverSeq%250+1),
				Loc:               loc,
				Country:           trueCountry,
				ASN:               asn,
				Prefix24:          prefix,
				DataCenter:        dc.ID,
				BlocksICMP:        rng.Float64() < cfg.ICMPBlockFraction,
				DropsTimeExceeded: rng.Float64() < cfg.DropTimeExceededFraction,
				AccessDelayMs:     0.2 + rng.Float64()*0.3, // data-center grade

			}
			// Aggressive filtering of unusual ports (§4.2) — everything
			// except 80 and 443.
			if rng.Float64() < 0.3 {
				host.FilteredPorts = map[int]bool{33434: true, 8080: true, 5060: true}
			}
			if err := net.AddHost(host); err != nil {
				return nil, err
			}
			p.Servers = append(p.Servers, &Server{
				Host:           host,
				Provider:       p.Name,
				Hostname:       fmt.Sprintf("%s.vpn-%s.example", claimed, p.Name),
				ClaimedCountry: claimed,
				TrueCountry:    trueCountry,
			})
		}
		f.Providers = append(f.Providers, p)
	}
	return f, nil
}

// pickHostingCountry draws a country by hosting weight.
func pickHostingCountry(rng *rand.Rand) string {
	var total float64
	codes := make([]string, 0, len(hostingWeight))
	for c := range hostingWeight {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	for _, c := range codes {
		total += hostingWeight[c]
	}
	x := rng.Float64() * total
	for _, c := range codes {
		x -= hostingWeight[c]
		if x <= 0 {
			return c
		}
	}
	return codes[len(codes)-1]
}

// ResolveHostname returns every server behind a round-robin DNS name,
// sorted by host ID. All the providers use round-robin DNS for load
// balancing (§6), which is why the paper resolves all hostnames in
// advance and tests each IP separately.
func (f *Fleet) ResolveHostname(hostname string) []*Server {
	var out []*Server
	for _, s := range f.Servers() {
		if s.Hostname == hostname {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Host.ID < out[j].Host.ID })
	return out
}

// Hostnames returns every distinct advertised hostname, sorted.
func (f *Fleet) Hostnames() []string {
	seen := map[string]bool{}
	for _, s := range f.Servers() {
		seen[s.Hostname] = true
	}
	out := make([]string, 0, len(seen))
	for h := range seen {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// Servers returns every server in the fleet, ordered by provider then ID.
func (f *Fleet) Servers() []*Server {
	var out []*Server
	for _, p := range f.Providers {
		out = append(out, p.Servers...)
	}
	return out
}

// Provider returns the named provider, or nil.
func (f *Fleet) Provider(name string) *Provider {
	for _, p := range f.Providers {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// Pingable returns the servers that answer direct pings (the ~10% used
// for the η calibration of Figure 13).
func (f *Fleet) Pingable() []*Server {
	var out []*Server
	for _, s := range f.Servers() {
		if !s.Host.BlocksICMP {
			out = append(out, s)
		}
	}
	return out
}

// DataCenterGroups clusters servers by (provider, AS, /24) — the
// Figure 16 metadata check: such a group is practically certain to be in
// one physical location.
func (f *Fleet) DataCenterGroups() map[string][]*Server {
	groups := map[string][]*Server{}
	for _, s := range f.Servers() {
		key := fmt.Sprintf("%s/AS%d/%s", s.Provider, s.Host.ASN, s.Host.Prefix24)
		groups[key] = append(groups[key], s)
	}
	return groups
}

// MarketEntry is one provider in the Figure 14 market overview.
type MarketEntry struct {
	Name      string
	Countries int  // number of claimed countries and dependencies
	Studied   bool // one of the seven providers in this study
}

// Market generates the 157-provider market of Figure 14: claim-breadth
// ranking with the studied providers placed at their observed ranks, and
// the long tail of modest competitors clustered on much the same popular
// countries.
func Market(rng *rand.Rand) []MarketEntry {
	out := make([]MarketEntry, 0, 157)
	for _, spec := range providerSpec {
		out = append(out, MarketEntry{Name: spec.name, Countries: spec.claimed, Studied: true})
	}
	for i := 0; i < 150; i++ {
		// Long-tailed distribution: most providers claim a handful of
		// countries, a few claim very many.
		n := 1 + int(60*rng.ExpFloat64()*0.35)
		if n > 175 {
			n = 175
		}
		out = append(out, MarketEntry{Name: fmt.Sprintf("other-%03d", i), Countries: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Countries != out[j].Countries {
			return out[i].Countries > out[j].Countries
		}
		return out[i].Name < out[j].Name
	})
	return out
}
