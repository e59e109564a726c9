// Package geo provides the spherical geodesy primitives used throughout
// the geolocation pipeline: points on the Earth's surface, great-circle
// distances and destinations, bearings, and the physical speed constants
// from the paper (the 200 km/ms fiber baseline and the 84.5 km/ms
// geostationary slowline).
//
// All distances are kilometers, all times are milliseconds, and all angles
// at the API boundary are degrees. Latitude is positive north, longitude
// positive east.
package geo

import (
	"fmt"
	"math"
)

const (
	// EarthRadiusKm is the mean Earth radius used for all great-circle math.
	EarthRadiusKm = 6371.0

	// HalfEquatorKm is half the equatorial circumference: the farthest any
	// two points on Earth can be from each other along the surface.
	// The paper uses 20 037.508 km.
	HalfEquatorKm = 20037.508

	// BaselineSpeedKmPerMs is the fastest a signal can travel in fiber,
	// roughly 2/3 of the speed of light in vacuum: 200 km/ms.
	BaselineSpeedKmPerMs = 200.0

	// SlowlineSpeedKmPerMs is the paper's CBG++ lower speed bound:
	// one-way travel times above 237 ms could involve a geostationary
	// satellite hop, which can bridge any two points on a hemisphere, so
	// they carry no distance information. HalfEquatorKm / 237 ms = 84.5.
	SlowlineSpeedKmPerMs = 84.5

	// GeostationaryOneWayMs is the one-way travel time above which a
	// measurement could have crossed a geostationary satellite link.
	GeostationaryOneWayMs = 237.0

	// ICLabSpeedKmPerMs is the speed limit used by ICLab's geolocation
	// checker: 153 km/ms (0.5104 c), slightly faster than the "speed of
	// internet" of Katz-Bassett et al.
	ICLabSpeedKmPerMs = 153.0
)

const (
	degToRad = math.Pi / 180.0
	radToDeg = 180.0 / math.Pi
)

// Point is a location on the Earth's surface.
type Point struct {
	Lat float64 // degrees, positive north, in [-90, 90]
	Lon float64 // degrees, positive east, in [-180, 180)
}

// String implements fmt.Stringer.
func (p Point) String() string {
	ns, ew := "N", "E"
	lat, lon := p.Lat, p.Lon
	if lat < 0 {
		ns, lat = "S", -lat
	}
	if lon < 0 {
		ew, lon = "W", -lon
	}
	return fmt.Sprintf("%.4f°%s %.4f°%s", lat, ns, lon, ew)
}

// Valid reports whether p is a well-formed coordinate.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 &&
		p.Lon >= -180 && p.Lon <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

// Normalize returns p with longitude wrapped into [-180, 180) and latitude
// clamped into [-90, 90].
func (p Point) Normalize() Point {
	lon := math.Mod(p.Lon+180, 360)
	if lon < 0 {
		lon += 360
	}
	lon -= 180
	lat := p.Lat
	if lat > 90 {
		lat = 90
	} else if lat < -90 {
		lat = -90
	}
	return Point{Lat: lat, Lon: lon}
}

// DistanceKm returns the great-circle distance between a and b using the
// haversine formula, which is numerically stable at small distances.
func DistanceKm(a, b Point) float64 {
	lat1 := a.Lat * degToRad
	lat2 := b.Lat * degToRad
	dLat := (b.Lat - a.Lat) * degToRad
	dLon := (b.Lon - a.Lon) * degToRad

	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	h := sinLat*sinLat + math.Cos(lat1)*math.Cos(lat2)*sinLon*sinLon
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
}

// DestinationPoint returns the point reached by traveling distKm from p
// along the given initial bearing (degrees clockwise from north).
func DestinationPoint(p Point, bearingDeg, distKm float64) Point {
	lat1 := p.Lat * degToRad
	lon1 := p.Lon * degToRad
	brg := bearingDeg * degToRad
	ad := distKm / EarthRadiusKm // angular distance

	sinLat2 := math.Sin(lat1)*math.Cos(ad) + math.Cos(lat1)*math.Sin(ad)*math.Cos(brg)
	lat2 := math.Asin(sinLat2)
	y := math.Sin(brg) * math.Sin(ad) * math.Cos(lat1)
	x := math.Cos(ad) - math.Sin(lat1)*sinLat2
	lon2 := lon1 + math.Atan2(y, x)

	return Point{Lat: lat2 * radToDeg, Lon: lon2 * radToDeg}.Normalize()
}

// Cap is a spherical cap: all points within RadiusKm of Center along the
// surface. It is the "disk on a map" primitive of multilateration.
type Cap struct {
	Center   Point
	RadiusKm float64
}

// Contains reports whether p lies inside the cap (inclusive).
func (c Cap) Contains(p Point) bool {
	return DistanceKm(c.Center, p) <= c.RadiusKm
}

// AreaKm2 returns the surface area of the cap.
func (c Cap) AreaKm2() float64 {
	if c.RadiusKm <= 0 {
		return 0
	}
	ad := c.RadiusKm / EarthRadiusKm
	if ad >= math.Pi {
		return 4 * math.Pi * EarthRadiusKm * EarthRadiusKm
	}
	return 2 * math.Pi * EarthRadiusKm * EarthRadiusKm * (1 - math.Cos(ad))
}

// Ring is a spherical annulus: points at distance [MinKm, MaxKm] from
// Center. Octant-style algorithms multilaterate with rings rather than
// disks.
type Ring struct {
	Center Point
	MinKm  float64
	MaxKm  float64
}

// Contains reports whether p lies inside the ring (inclusive).
func (r Ring) Contains(p Point) bool {
	d := DistanceKm(r.Center, p)
	return d >= r.MinKm && d <= r.MaxKm
}

// MaxDistanceKm converts a one-way travel time to the farthest distance a
// packet could have covered at the given speed.
func MaxDistanceKm(oneWayMs, speedKmPerMs float64) float64 {
	d := oneWayMs * speedKmPerMs
	if d > HalfEquatorKm {
		return HalfEquatorKm
	}
	if d < 0 {
		return 0
	}
	return d
}

// OneWayMs halves a round-trip time. RTT measurements bound distance via
// the one-way travel time.
func OneWayMs(rttMs float64) float64 { return rttMs / 2 }
