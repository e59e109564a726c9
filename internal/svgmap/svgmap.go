// Package svgmap renders world maps as SVG: the graphical counterpart
// to package vis, used by the web demo (cmd/webdemo) to draw
// measurements as circles on a map the way the paper's web application
// does, and by anyone who wants a figure-quality view of a prediction
// region.
//
// The projection is equirectangular. Countries are drawn from the
// worldmap cap atlas (each cap becomes a circle), so the map is
// self-contained — no external geometry files.
package svgmap

import (
	"fmt"
	"math"
	"strings"

	"activegeo/internal/geo"
	"activegeo/internal/grid"
	"activegeo/internal/worldmap"
)

// Map accumulates layers and renders SVG.
type Map struct {
	width, height int
	layers        []string
}

// New creates a map canvas of the given pixel width (2:1 aspect).
func New(widthPx int) *Map {
	if widthPx < 200 {
		widthPx = 200
	}
	m := &Map{width: widthPx, height: widthPx / 2}
	m.layers = append(m.layers, fmt.Sprintf(
		`<rect width="%d" height="%d" fill="#dbe9f4"/>`, m.width, m.height))
	m.drawCountries()
	return m
}

// xy projects a point to pixel coordinates.
func (m *Map) xy(p geo.Point) (float64, float64) {
	p = p.Normalize()
	x := (p.Lon + 180) / 360 * float64(m.width)
	y := (90 - p.Lat) / 180 * float64(m.height)
	return x, y
}

// kmToPx converts a surface distance at latitude lat to pixels along the
// x axis (the equirectangular scale varies with latitude; for circle
// radii we use the latitude-independent y scale, which keeps circles
// visually comparable).
func (m *Map) kmToPx(km float64) float64 {
	return km / (180 * grid.KmPerDeg) * float64(m.height)
}

// drawCountries paints every country's caps.
func (m *Map) drawCountries() {
	var b strings.Builder
	b.WriteString(`<g fill="#b9c7ae" stroke="none">`)
	for _, c := range worldmap.Countries() {
		for _, cap := range c.Shapes {
			x, y := m.xy(cap.Center)
			r := m.kmToPx(math.Max(cap.RadiusKm, 40))
			fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="%.1f"/>`, x, y, r)
		}
	}
	b.WriteString(`</g>`)
	m.layers = append(m.layers, b.String())
}

// AddDisk draws a measurement disk (a landmark's distance bound) as a
// translucent circle — the paper's Figure 1 visual.
func (m *Map) AddDisk(c geo.Cap, color string) {
	x, y := m.xy(c.Center)
	m.layers = append(m.layers, fmt.Sprintf(
		`<circle cx="%.1f" cy="%.1f" r="%.1f" fill="%s" fill-opacity="0.12" stroke="%s" stroke-opacity="0.6" stroke-width="1"/>`,
		x, y, m.kmToPx(c.RadiusKm), color, color))
}

// AddRegion draws a prediction region's cells.
func (m *Map) AddRegion(r *grid.Region, color string) {
	g := r.Grid()
	var b strings.Builder
	fmt.Fprintf(&b, `<g fill="%s" fill-opacity="0.75" stroke="none">`, color)
	cellH := float64(m.height) / 180 * g.Resolution()
	r.Each(func(i int) {
		p := g.Center(i)
		x, y := m.xy(p)
		w := cellH / math.Max(0.2, math.Cos(p.Lat*math.Pi/180))
		fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f"/>`,
			x-w/2, y-cellH/2, w, cellH)
	})
	b.WriteString(`</g>`)
	m.layers = append(m.layers, b.String())
}

// AddPoint draws a marker with a label.
func (m *Map) AddPoint(p geo.Point, color, label string) {
	x, y := m.xy(p)
	m.layers = append(m.layers, fmt.Sprintf(
		`<circle cx="%.1f" cy="%.1f" r="4" fill="%s" stroke="#fff" stroke-width="1.2"/>`, x, y, color))
	if label != "" {
		m.layers = append(m.layers, fmt.Sprintf(
			`<text x="%.1f" y="%.1f" font-size="11" font-family="sans-serif" fill="#222">%s</text>`,
			x+6, y-4, escape(label)))
	}
}

// String renders the SVG document.
func (m *Map) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 %d %d" width="%d" height="%d">`,
		m.width, m.height, m.width, m.height)
	for _, l := range m.layers {
		b.WriteString(l)
	}
	b.WriteString(`</svg>`)
	return b.String()
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
