// Package crowd models the crowdsourced validation hosts of §5: 40
// volunteers recruited from mailing lists plus 150 Mechanical Turk
// workers, who reported their location to two decimal places (~1 km) and
// measured RTTs to RIPE Atlas anchors and probes with the Web-based tool
// — mostly from Windows machines, which is what makes the validation a
// fair stand-in for the noise proxies add (§5, last paragraph).
package crowd

import (
	"fmt"
	"math"
	"math/rand"

	"activegeo/internal/atlas"
	"activegeo/internal/geo"
	"activegeo/internal/measure"
	"activegeo/internal/netsim"
)

// Host is one crowdsourced validation host.
type Host struct {
	ID       netsim.HostID
	TrueLoc  geo.Point
	Reported geo.Point // rounded to two decimal places, as uploaded
	OS       measure.OS
	Browser  measure.Browser
	MTurk    bool // paid contributor vs volunteer
}

// Config controls cohort construction.
type Config struct {
	Volunteers int // paper: 40
	MTurk      int // paper: 150
}

// DefaultConfig matches the paper's cohort.
func DefaultConfig() Config { return Config{Volunteers: 40, MTurk: 150} }

// cities weights the cohort's geography like Figure 8: mostly Europe and
// North America, with enough contributors elsewhere for statistics.
var cities = []struct {
	lat, lon, weight float64
}{
	{52.52, 13.41, 8}, {48.86, 2.35, 7}, {51.51, -0.13, 8}, {40.42, -3.70, 5},
	{41.90, 12.50, 4}, {52.23, 21.01, 4}, {59.33, 18.07, 3}, {50.08, 14.44, 3},
	{47.50, 19.04, 2}, {38.72, -9.14, 2}, {55.76, 37.62, 3}, {50.45, 30.52, 2},
	{40.71, -74.01, 8}, {41.88, -87.63, 6}, {34.05, -118.24, 6}, {47.61, -122.33, 4},
	{43.65, -79.38, 4}, {29.76, -95.37, 3}, {39.74, -104.99, 2}, {25.76, -80.19, 2},
	{19.43, -99.13, 3}, {-23.55, -46.63, 4}, {-34.60, -58.38, 3}, {4.71, -74.07, 2},
	{-33.45, -70.67, 2}, {35.68, 139.65, 3}, {37.57, 126.98, 2}, {28.61, 77.21, 4},
	{19.08, 72.88, 3}, {13.76, 100.50, 2}, {1.35, 103.82, 2}, {14.60, 120.98, 3},
	{-6.21, 106.85, 2}, {-33.87, 151.21, 3}, {-36.85, 174.76, 1}, {30.04, 31.24, 2},
	{6.52, 3.38, 2}, {-26.20, 28.05, 2}, {-1.29, 36.82, 1}, {33.57, -7.59, 1},
	{41.01, 28.98, 3}, {35.69, 51.39, 1},
}

// Build places the cohort's hosts into the constellation's network.
func Build(cons *atlas.Constellation, cfg Config, rng *rand.Rand) ([]*Host, error) {
	total := cfg.Volunteers + cfg.MTurk
	if total == 0 {
		cfg = DefaultConfig()
		total = cfg.Volunteers + cfg.MTurk
	}
	var weightSum float64
	for _, c := range cities {
		weightSum += c.weight
	}
	hosts := make([]*Host, 0, total)
	for i := 0; i < total; i++ {
		x := rng.Float64() * weightSum
		city := cities[len(cities)-1]
		for _, c := range cities {
			x -= c.weight
			if x <= 0 {
				city = c
				break
			}
		}
		loc := geo.DestinationPoint(
			geo.Point{Lat: city.lat, Lon: city.lon},
			rng.Float64()*360, rng.Float64()*40)
		h := &Host{
			ID:      netsim.HostID(fmt.Sprintf("crowd-%03d", i)),
			TrueLoc: loc,
			Reported: geo.Point{
				Lat: math.Round(loc.Lat*100) / 100,
				Lon: math.Round(loc.Lon*100) / 100,
			},
			MTurk: i >= cfg.Volunteers,
		}
		// §5: most contributors used Windows; browsers vary.
		if rng.Float64() < 0.8 {
			h.OS = measure.Windows
		} else {
			h.OS = measure.Linux
		}
		switch rng.Intn(3) {
		case 0:
			h.Browser = measure.Chrome
		case 1:
			h.Browser = measure.Firefox
		default:
			h.Browser = measure.Edge
		}
		if err := cons.Net().AddHost(&netsim.Host{
			ID:            h.ID,
			Loc:           loc,
			AccessDelayMs: 3 + rng.ExpFloat64()*10, // residential
		}); err != nil {
			return nil, err
		}
		hosts = append(hosts, h)
	}
	return hosts, nil
}

// MeasureAllAnchors measures the host against every anchor with its own
// web tool — the §5.2 protocol ("we measured the round-trip time between
// all 250 RIPE Atlas anchors and the target").
func (h *Host) MeasureAllAnchors(cons *atlas.Constellation, rng *rand.Rand) []measure.Sample {
	tool := &measure.WebTool{Net: cons.Net(), OS: h.OS, Browser: h.Browser}
	var out []measure.Sample
	for _, lm := range cons.Anchors() {
		s, err := tool.Measure(h.ID, lm, rng)
		if err != nil {
			continue
		}
		out = append(out, s)
	}
	return out
}
