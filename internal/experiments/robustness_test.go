package experiments

import (
	"reflect"
	"testing"

	"activegeo/internal/netsim"
)

func robustnessLab(t *testing.T, concurrency int) *Lab {
	t.Helper()
	lab, err := NewLab(tinyAuditConfig(concurrency))
	if err != nil {
		t.Fatal(err)
	}
	return lab
}

// TestRobustnessToleranceUpToThreshold: the credible/uncertain/false
// tallies stay within the documented tolerance band of the fault-free
// baseline for every loss rate at or below RobustnessLossThreshold, on
// the tiny lab and on the quick fleet with 8 crowd hosts. The quick
// fleet's fault-free point is the pinned 166/25/161 audit.
func TestRobustnessToleranceUpToThreshold(t *testing.T) {
	for _, tc := range []struct {
		name       string
		lab        func(*testing.T) *Lab
		crowdHosts int
		baseline   *[3]int
	}{
		{"tiny", func(t *testing.T) *Lab { return robustnessLab(t, 4) }, 4, nil},
		{"quick", func(t *testing.T) *Lab { return lab(t) }, 8, &[3]int{166, 25, 161}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "quick" && testing.Short() {
				t.Skip("six full quick-fleet audits")
			}
			res, err := tc.lab(t).Robustness(nil, tc.crowdHosts)
			if err != nil {
				t.Fatal(err)
			}
			t.Log(res.Render())
			if len(res.Points) != len(DefaultLossSweep) {
				t.Fatalf("points = %d, want %d", len(res.Points), len(DefaultLossSweep))
			}
			if res.Points[0].Loss != 0 {
				t.Fatal("sweep must start at the fault-free baseline")
			}
			baseline := res.Points[0].Tally
			if baseline.Total() == 0 {
				t.Fatal("empty baseline tally")
			}
			if got := [3]int{baseline.Credible, baseline.Uncertain, baseline.False}; tc.baseline != nil && got != *tc.baseline {
				t.Errorf("fault-free tally credible/uncertain/false %v, want %v", got, *tc.baseline)
			}
			for _, p := range res.Points {
				if p.Loss > RobustnessLossThreshold {
					continue
				}
				if !p.WithinTolerance(baseline, RobustnessTallyTolerance) {
					t.Errorf("loss %.2f: tally %d/%d/%d outside ±%.0f%% of baseline %d/%d/%d",
						p.Loss, p.Tally.Credible, p.Tally.Uncertain, p.Tally.False,
						100*RobustnessTallyTolerance,
						baseline.Credible, baseline.Uncertain, baseline.False)
				}
			}
			// The sweep must actually degrade: the highest loss point records
			// injected damage.
			last := res.Points[len(res.Points)-1]
			if last.DegradedServers == 0 && last.MeasureFailures == 0 {
				t.Error("highest loss point recorded no degradation at all")
			}
			if last.MeanCoverage >= res.Points[0].MeanCoverage && last.LostLandmarks == 0 {
				t.Error("coverage did not drop and no landmarks were lost at 20% loss")
			}
			// Every point carries all five algorithms' region sizes.
			for _, p := range res.Points {
				if len(p.Areas) != 5 {
					t.Fatalf("loss %.2f: %d algorithms, want 5", p.Loss, len(p.Areas))
				}
				names := []string{"CBG", "Quasi-Octant", "Spotter", "Hybrid", "CBG++"}
				for i, a := range p.Areas {
					if a.Algorithm != names[i] {
						t.Errorf("loss %.2f: algorithm[%d] = %q, want %q", p.Loss, i, a.Algorithm, names[i])
					}
				}
			}
		})
	}
}

// TestRobustnessRestoresLab: the sweep must leave the lab exactly as it
// found it — fault configuration and memoized audit both restored.
func TestRobustnessRestoresLab(t *testing.T) {
	lab := robustnessLab(t, 2)
	before, err := lab.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lab.Robustness([]float64{0, 0.1}, 2); err != nil {
		t.Fatal(err)
	}
	if lab.Net.Faults().Enabled() {
		t.Error("sweep left faults armed on the lab network")
	}
	after, err := lab.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Error("sweep dropped the lab's memoized audit")
	}
}

// TestRobustnessDeterministic: two sweeps over the same lab seed are
// identical, point by point, at different concurrency widths.
func TestRobustnessDeterministic(t *testing.T) {
	r1, err := robustnessLab(t, 1).Robustness([]float64{0, 0.15}, 3)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := robustnessLab(t, 8).Robustness([]float64{0, 0.15}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("sweep diverged across concurrency widths:\n%+v\nvs\n%+v", r1, r2)
	}
}

// TestRobustnessPointFaultShape: each point's fault config is the
// documented default profile for its loss rate.
func TestRobustnessPointFaultShape(t *testing.T) {
	lab := robustnessLab(t, 4)
	res, err := lab.Robustness([]float64{0, 0.08}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Points[0].Faults.Enabled() {
		t.Error("loss 0 must run with faults disabled")
	}
	want := netsim.DefaultFaults(0.08)
	if res.Points[1].Faults != want {
		t.Errorf("faults = %+v, want %+v", res.Points[1].Faults, want)
	}
}
