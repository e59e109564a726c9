package detect

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"activegeo/internal/geo"
	"activegeo/internal/geoloc"
	"activegeo/internal/mathx"
	"activegeo/internal/netsim"
)

// synthMesh builds a fully-connected mesh over n anchors placed on a
// line 600 km apart, with honest RTT = slope·dist + base plus a small
// deterministic ripple. liars maps anchor index to a mutator applied to
// the edges that anchor owns (its own reports); displace maps anchor
// index to a claimed-position offset in km applied to the distances of
// every edge touching it (both views — a misreported position corrupts
// the geometry for peers too).
func synthMesh(n int, ownBias map[int]float64, displaceKm map[int]float64) []MeshEdge {
	id := func(i int) netsim.HostID { return netsim.HostID(fmt.Sprintf("anchor-%03d", i)) }
	pos := func(i int) float64 { return float64(i) * 600 }
	claimed := func(i int) float64 { return pos(i) + displaceKm[i] }
	var edges []MeshEdge
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			trueDist := math.Abs(pos(i) - pos(j))
			claimedDist := math.Abs(claimed(i) - claimed(j))
			// Honest timing follows the true geometry; the ripple keeps
			// the fit from being degenerate.
			rtt := 0.012*trueDist + 5 + 0.3*float64((i*7+j*13)%5)
			rtt += ownBias[i] // the owner's forged report padding
			edges = append(edges, MeshEdge{
				From:          id(i),
				To:            id(j),
				ClaimedDistKm: claimedDist,
				MinRTTms:      rtt,
			})
		}
	}
	return edges
}

// mustCrossValidate cross-validates edges at the default thresholds and
// fails t on an error.
func mustCrossValidate(t *testing.T, edges []MeshEdge) *LandmarkReport {
	t.Helper()
	rep, err := CrossValidate(edges, DefaultCrossValidateConfig())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestCrossValidateDegenerateMesh: a mesh with no global fit is an
// error, never an empty report that judges every anchor honest. Both
// exits are covered: too few edges, and a robust fit that fails (here
// on a non-finite distance, whose cause the error keeps).
func TestCrossValidateDegenerateMesh(t *testing.T) {
	edges := synthMesh(4, nil, nil)
	for _, tc := range []struct {
		name  string
		edges []MeshEdge
		cause error
	}{
		{"no edges", nil, nil},
		{"one edge", edges[:1], nil},
		{"non-finite distance", append([]MeshEdge{{From: "x", To: "y", ClaimedDistKm: math.Inf(1), MinRTTms: 5}}, edges...), mathx.ErrNonFinite},
	} {
		rep, err := CrossValidate(tc.edges, DefaultCrossValidateConfig())
		if !errors.Is(err, ErrDegenerateMesh) || rep != nil {
			t.Errorf("%s: report %v, err %v; want ErrDegenerateMesh", tc.name, rep, err)
		}
		if tc.cause != nil && !errors.Is(err, tc.cause) {
			t.Errorf("%s: err %v does not wrap %v", tc.name, err, tc.cause)
		}
	}
}

// TestCrossValidateHonestMesh: an all-honest mesh must flag nobody.
func TestCrossValidateHonestMesh(t *testing.T) {
	rep := mustCrossValidate(t, synthMesh(12, nil, nil))
	if len(rep.Flagged) != 0 {
		t.Fatalf("honest mesh flagged %v", rep.Flagged)
	}
	if rep.Fit.Slope < 0.008 || rep.Fit.Slope > 0.016 {
		t.Fatalf("global fit slope %.4f implausible for 0.012 ms/km mesh", rep.Fit.Slope)
	}
}

// TestCrossValidateBiasLiar: an anchor padding its own reports by 40 ms
// shows the differential intercept signature — its own-view fit is
// elevated, the honest peer view toward it is not.
func TestCrossValidateBiasLiar(t *testing.T) {
	edges := synthMesh(12, map[int]float64{3: 40}, nil)
	rep := mustCrossValidate(t, edges)
	want := netsim.HostID("anchor-003")
	if !rep.IsFlagged(want) {
		t.Fatalf("bias liar %s not flagged; flagged=%v", want, rep.Flagged)
	}
	if len(rep.Flagged) != 1 {
		t.Fatalf("flagged %v, want only %s", rep.Flagged, want)
	}
	for _, v := range rep.Verdicts {
		if v.ID == want {
			if v.Reason != "bias" {
				t.Errorf("reason = %q, want bias", v.Reason)
			}
			if v.ShiftMs < 25 {
				t.Errorf("differential shift %.1f ms, want >= 25 (forged padding is one-sided)", v.ShiftMs)
			}
		} else if v.Flagged {
			t.Errorf("honest anchor %s flagged (%s)", v.ID, v.Reason)
		}
	}
}

// TestCrossValidatePositionLiarGreedyPeel: a displaced anchor makes
// edges physically impossible, but each violating edge implicates both
// endpoints. The greedy attribution must flag only the anchor
// concentrating the violations and exonerate the honest peers its edges
// touch.
func TestCrossValidatePositionLiarGreedyPeel(t *testing.T) {
	// 2500 km displacement on short (600–1200 km) hops breaks the
	// 100 km/ms one-way floor on many of anchor 5's edges.
	edges := synthMesh(12, nil, map[int]float64{5: 2500})
	rep := mustCrossValidate(t, edges)
	want := netsim.HostID("anchor-005")
	if !rep.IsFlagged(want) {
		t.Fatalf("position liar %s not flagged; flagged=%v", want, rep.Flagged)
	}
	for _, v := range rep.Verdicts {
		if v.ID == want {
			if v.Reason != "position" {
				t.Errorf("reason = %q, want position", v.Reason)
			}
			if v.FloorViolations == 0 {
				t.Errorf("position liar shows no floor violations")
			}
		} else if v.Flagged {
			t.Errorf("honest peer %s condemned by the liar's edges (%s)", v.ID, v.Reason)
		}
	}
}

// TestCrossValidatePaperScale runs the cross-validation over a mesh the
// size of the paper's ~250 RIPE Atlas anchors: 62,250 edges, whose
// ~1.9·10⁹ pairwise slopes an enumerating Theil–Sen could not hold in
// memory. It must still flag exactly the one bias liar, within a 64 MiB
// allocation budget for the whole call.
func TestCrossValidatePaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale mesh")
	}
	edges := synthMesh(250, map[int]float64{3: 40}, nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep := mustCrossValidate(t, edges)
	runtime.ReadMemStats(&after)
	if want := []netsim.HostID{"anchor-003"}; !reflect.DeepEqual(rep.Flagged, want) {
		t.Fatalf("flagged %v, want %v", rep.Flagged, want)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<20 {
		t.Fatalf("CrossValidate allocated %.1f MiB over %d edges, want < 64", float64(alloc)/(1<<20), len(edges))
	}
}

// TestIsFlaggedNil: a nil report never flags.
func TestIsFlaggedNil(t *testing.T) {
	var rep *LandmarkReport
	if rep.IsFlagged("anyone") {
		t.Fatal("nil report flagged a landmark")
	}
}

// TestMaskStrings: canonical order, empty mask renders nil.
func TestMaskStrings(t *testing.T) {
	if got := MaskStrings(0); got != nil {
		t.Fatalf("MaskStrings(0) = %v, want nil", got)
	}
	got := MaskStrings(ReasonSmooth | ReasonShift | ReasonFast)
	want := []string{"smooth", "shift", "fast"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("MaskStrings = %v, want %v", got, want)
	}
}

// TestLowerMAD: contamination entirely above the median must not move
// the one-sided scale — that is the property the fast gate relies on.
func TestLowerMAD(t *testing.T) {
	clean := []float64{10, 11, 12, 13, 14, 15, 16}
	base := lowerMAD(clean)
	if base <= 0 {
		t.Fatalf("lowerMAD of spread data = %v, want > 0", base)
	}
	contaminated := append(append([]float64{}, clean...), 100, 200, 300)
	if got := lowerMAD(contaminated); got > base+2 {
		t.Fatalf("upper-tail contamination moved lowerMAD %v -> %v", base, got)
	}
}

// synthMeasurements builds a server's measurement set around a centroid:
// landmarks on a ring of radii, RTT = slope·dist + base + ripple.
func synthMeasurements(n int, slope, base, rippleMs float64) ([]geoloc.Measurement, geo.Point) {
	centroid := geo.Point{Lat: 48, Lon: 11}
	ms := make([]geoloc.Measurement, n)
	for i := range ms {
		bearing := float64(i * 37 % 360)
		dist := 500 + float64(i*211%3000)
		lm := geo.DestinationPoint(centroid, bearing, dist)
		rtt := slope*dist + base + rippleMs*float64(i%5-2)/2
		ms[i] = geoloc.Measurement{
			LandmarkID: netsim.HostID(fmt.Sprintf("lm-%03d", i)),
			Landmark:   lm,
			RTTms:      rtt,
		}
	}
	return ms, centroid
}

// TestJudgeServers: a population of honest servers calibrates the
// gates; a shifted, a deflated and a too-smooth server trip exactly the
// expected detectors, and judging is idempotent and order-free.
func TestJudgeServers(t *testing.T) {
	cfg := DefaultInspectConfig()
	insps := map[string]Inspection{}
	for i := 0; i < 20; i++ {
		ms, c := synthMeasurements(24, 0.012, 8, 4)
		insps[fmt.Sprintf("honest-%02d", i)] = InspectServer(ms, c, cfg)
	}
	shifted, c1 := synthMeasurements(24, 0.012, 200, 4)
	insps["shifted"] = InspectServer(shifted, c1, cfg)
	deflated, c2 := synthMeasurements(24, 0.001, 8, 4)
	insps["deflated"] = InspectServer(deflated, c2, cfg)
	smooth, c3 := synthMeasurements(24, 0.012, 8, 0)
	insps["smooth"] = InspectServer(smooth, c3, cfg)

	judged := JudgeServers(insps, cfg)
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("honest-%02d", i)
		if judged[id].Suspected {
			t.Errorf("honest server %s suspected: %v", id, judged[id].Reasons)
		}
	}
	for id, bit := range map[string]uint8{
		"shifted":  ReasonShift,
		"deflated": ReasonSlow,
		"smooth":   ReasonSmooth,
	} {
		j := judged[id]
		if !j.Suspected || j.ReasonMask&bit == 0 {
			t.Errorf("%s: suspected=%v mask=%08b, want bit %08b set", id, j.Suspected, j.ReasonMask, bit)
		}
		if j.Score < 1 {
			t.Errorf("%s: score %.3f < 1 despite tripped detector", id, j.Score)
		}
	}

	again := JudgeServers(judged, cfg)
	if !reflect.DeepEqual(again, judged) {
		t.Fatal("JudgeServers is not idempotent over its own output")
	}
}

// TestInspectServerTooFew: under MinMeasurements the verdict stays
// unfitted and judging leaves it clear.
func TestInspectServerTooFew(t *testing.T) {
	cfg := DefaultInspectConfig()
	ms, c := synthMeasurements(cfg.MinMeasurements-1, 0.012, 8, 4)
	insp := InspectServer(ms, c, cfg)
	if insp.Fitted {
		t.Fatal("fitted with fewer than MinMeasurements samples")
	}
	judged := JudgeServers(map[string]Inspection{"x": insp}, cfg)
	if judged["x"].Suspected {
		t.Fatal("unfitted inspection judged suspected")
	}
}

func BenchmarkCrossValidate(b *testing.B) {
	for _, anchors := range []int{48, 80} {
		edges := synthMesh(anchors, map[int]float64{3: 40}, nil)
		b.Run(fmt.Sprintf("anchors=%d", anchors), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				CrossValidate(edges, DefaultCrossValidateConfig())
			}
		})
	}
}
