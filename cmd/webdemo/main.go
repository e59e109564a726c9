// Command webdemo is this library's version of the paper's Web-based
// measurement application (§4.2): an HTTP server that runs a live
// active-geolocation demonstration and draws the measurements as circles
// on a map, together with the CBG++ prediction region.
//
// Usage:
//
//	webdemo [-addr 127.0.0.1:8099] [-seed 2018]
//
// Open http://127.0.0.1:8099/ and pick a (simulated) place to locate:
// the server measures it through the simulated constellation with the
// web tool, multilaterates with CBG++, and returns the SVG map plus the
// verdict — the same flow the paper demonstrated at
// research.owlfolio.org/active-geo, self-contained and offline.
package main

import (
	"flag"
	"fmt"
	"html/template"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"

	"activegeo/internal/atlas"
	"activegeo/internal/cbgpp"
	"activegeo/internal/geo"
	"activegeo/internal/geoloc"
	"activegeo/internal/measure"
	"activegeo/internal/netsim"
	"activegeo/internal/svgmap"
	"activegeo/internal/worldmap"
)

var page = template.Must(template.New("page").Parse(`<!DOCTYPE html>
<html><head><title>activegeo live demo</title>
<style>body{font-family:sans-serif;max-width:1100px;margin:2em auto;color:#222}
svg{border:1px solid #ccc;width:100%;height:auto}
code{background:#f4f4f4;padding:1px 4px}</style></head>
<body>
<h1>Active geolocation, live</h1>
<p>Pick a target. The server measures it against the landmark
constellation with the two-phase procedure, multilaterates with CBG++,
and draws every measurement disk and the final prediction region —
as in Figure 1 of <em>How to Catch when Proxies Lie</em> (IMC '18).</p>
<form method="GET" action="/locate">
lat <input name="lat" value="{{.Lat}}" size="8">
lon <input name="lon" value="{{.Lon}}" size="8">
<button type="submit">Locate</button>
</form>
{{if .Result}}
<h2>{{.Result.Title}}</h2>
<p>{{.Result.Detail}}</p>
{{.Result.SVG}}
{{end}}
</body></html>`))

type resultView struct {
	Title  string
	Detail string
	SVG    template.HTML
}

type pageView struct {
	Lat, Lon string
	Result   *resultView
}

type demoServer struct {
	cons *atlas.Constellation
	alg  *cbgpp.CBGPP
	env  *geoloc.Env
	seed int64

	mu  sync.Mutex
	seq int
}

func (d *demoServer) handleIndex(w http.ResponseWriter, r *http.Request) {
	_ = page.Execute(w, pageView{Lat: "52.52", Lon: "13.40"})
}

func (d *demoServer) handleLocate(w http.ResponseWriter, r *http.Request) {
	lat, err1 := strconv.ParseFloat(r.URL.Query().Get("lat"), 64)
	lon, err2 := strconv.ParseFloat(r.URL.Query().Get("lon"), 64)
	p := geo.Point{Lat: lat, Lon: lon}
	if err1 != nil || err2 != nil || !p.Valid() {
		http.Error(w, "bad lat/lon", http.StatusBadRequest)
		return
	}

	d.mu.Lock()
	d.seq++
	target := netsim.HostID(fmt.Sprintf("demo-target-%04d", d.seq))
	err := d.cons.Net().AddHost(&netsim.Host{ID: target, Loc: p})
	d.mu.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	// Per-target noise stream, a pure function of (seed, target): no
	// handler-shared *rand.Rand, so concurrent locates never perturb
	// each other's measurements (sharedrand analyzer, DESIGN.md §6).
	rng := netsim.NewRand(measure.StreamSeed(d.seed, target))

	tp := &measure.TwoPhase{Cons: d.cons, Tool: &measure.WebTool{Net: d.cons.Net()}}
	res, err := tp.Run(target, rng)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	ms := res.Measurements()
	region, err := d.alg.Locate(ms)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}

	m := svgmap.New(1100)
	cal := d.alg.Calibration()
	for _, meas := range geoloc.Collapse(ms) {
		m.AddDisk(geo.Cap{
			Center:   meas.Landmark,
			RadiusKm: cal.MaxDistanceKm(meas.LandmarkID, meas.OneWayMs()),
		}, "#1f6fb2")
	}
	m.AddRegion(region, "#c0392b")
	m.AddPoint(p, "#111", "target")

	detail := fmt.Sprintf("%d measurements (phase 1: %d, phase 2 on %s: %d); region %d cells, %.0f km²",
		len(ms), len(res.Phase1), res.Continent, len(res.Phase2), region.Count(), region.AreaKm2())
	if codes := d.env.Mask.CountriesOverlapping(region); len(codes) > 0 {
		names := make([]string, 0, len(codes))
		for _, code := range codes {
			if c := worldmap.ByCode(code); c != nil {
				names = append(names, c.Name)
			}
		}
		detail += fmt.Sprintf("; could be: %v", names)
	}
	view := pageView{
		Lat: r.URL.Query().Get("lat"),
		Lon: r.URL.Query().Get("lon"),
		Result: &resultView{
			Title:  "Prediction for " + p.String(),
			Detail: detail,
			SVG:    template.HTML(m.String()), // generated server-side, no user input
		},
	}
	_ = page.Execute(w, view)
}

func newDemoServer(seed int64) (*demoServer, error) {
	simNet := netsim.New(seed)
	rng := rand.New(rand.NewSource(seed))
	cons, err := atlas.Build(simNet, atlas.Config{Anchors: 100, Probes: 150, SamplesPerPair: 4}, rng)
	if err != nil {
		return nil, err
	}
	env := geoloc.NewEnv(1.0)
	cal, err := cbgpp.Calibrate(cons, cbgpp.Options{})
	if err != nil {
		return nil, err
	}
	return &demoServer{
		cons: cons,
		alg:  cbgpp.New(env, cal, cbgpp.Options{}),
		env:  env,
		seed: seed,
	}, nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8099", "listen address")
	seed := flag.Int64("seed", 2018, "world seed")
	flag.Parse()

	d, err := newDemoServer(*seed)
	if err != nil {
		log.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", d.handleIndex)
	mux.HandleFunc("/locate", d.handleLocate)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "webdemo: serving on http://%s\n", ln.Addr())
	log.Fatal(http.Serve(ln, mux))
}
