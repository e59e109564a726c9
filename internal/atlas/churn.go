package atlas

import (
	"fmt"
	"math/rand"

	"activegeo/internal/geo"
	"activegeo/internal/netsim"
)

// Churn models the constellation turnover the paper experienced: "At
// the time we began our experiments (July 2016), there were 207 usable
// anchors; during the course of the experiment, 12 were decommissioned
// and another 61 were added."
//
// Decommissioned anchors stay in the network (their hosts don't vanish
// from the Internet) but are removed from the landmark set and lose
// their calibration data; added anchors are placed like Build places
// them and only gain calibration on the next RefreshCalibration.

// Decommission removes n randomly chosen anchors from the landmark set
// and returns their IDs.
func (c *Constellation) Decommission(n int, rng *rand.Rand) []netsim.HostID {
	if n > len(c.anchors) {
		n = len(c.anchors)
	}
	perm := rng.Perm(len(c.anchors))[:n]
	drop := map[int]bool{}
	var ids []netsim.HostID
	for _, i := range perm {
		drop[i] = true
		ids = append(ids, c.anchors[i].Host.ID)
	}
	kept := c.anchors[:0:0]
	for i, a := range c.anchors {
		if drop[i] {
			delete(c.byID, a.Host.ID)
			delete(c.calib, a.Host.ID)
			continue
		}
		kept = append(kept, a)
	}
	c.anchors = kept
	c.regroup()
	c.epoch.Add(1)
	return ids
}

// AddAnchors places n new anchors near the given cities' coordinates
// (cycled), registering them in the network. They have no calibration
// until the next RefreshCalibration.
//
// IDs and addresses come from a monotonic per-constellation counter, not
// from rng: random six-digit IDs collide after a few hundred churn
// rounds (birthday bound), and a collision silently overwrote the byID
// entry while AddHost rejected the duplicate host — corrupting any state
// keyed by anchor ID. Placement randomness still comes from rng, so
// churn remains reproducible.
func (c *Constellation) AddAnchors(n int, rng *rand.Rand) ([]netsim.HostID, error) {
	var ids []netsim.HostID
	for i := 0; i < n; i++ {
		city := cities[rng.Intn(len(cities))]
		loc := geo.DestinationPoint(geo.Point{Lat: city.Lat, Lon: city.Lon},
			rng.Float64()*360, rng.Float64()*30)
		seq := c.anchorSeq
		c.anchorSeq++
		h := &netsim.Host{
			ID:            netsim.HostID(fmt.Sprintf("anchor-new-%06d", seq)),
			Addr:          fmt.Sprintf("192.88.%d.%d", seq/250%250, seq%250),
			Loc:           loc,
			Country:       city.Country,
			AccessDelayMs: 0.5 + rng.Float64()*1.5,
			ListensHTTP:   rng.Float64() < 0.5,
		}
		if err := c.net.AddHost(h); err != nil {
			c.regroup()
			return ids, err
		}
		lm := &Landmark{Host: h, IsAnchor: true}
		c.anchors = append(c.anchors, lm)
		c.byID[h.ID] = lm
		ids = append(ids, h.ID)
	}
	c.regroup()
	c.epoch.Add(1)
	return ids, nil
}
