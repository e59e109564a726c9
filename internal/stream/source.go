// Package stream is the fleet audit engine: the §6 pipeline (two-phase
// measurement, η correction, CBG++, claim verdict, data-center and
// AS//24 disambiguation, and the optional manipulation detection) run
// so memory stays bounded at any fleet size. The fleet flows through a
// bounded-queue batch scheduler: per-server RTT vectors and regions live
// only for the batch that carries them, and the only O(fleet) state is
// the verdict store (one row of a few hundred bytes per server).
// experiments.Lab.Audit is one full-fleet pass of this engine that keeps
// each batch's regions for the figures.
//
// Re-assessment is churn-driven: every verdict is stamped with a
// dependency signature over the atlas epoch, the fault ledger and the
// server's claim, and a Sync pass re-measures only the servers whose
// signature changed. Measurement randomness comes from per-entity
// streams (measure.StreamSeed over the configured base seed), so a
// verdict never depends on batch geometry, and the fingerprint of a
// full pass is pinned in internal/experiments' tests against the audit
// golden SHA.
package stream

import (
	"fmt"

	"activegeo/internal/netsim"
	"activegeo/internal/proxy"
)

// ServerSpec is the compact description of one fleet member — everything
// the audit needs to measure and judge it, without holding the server
// object itself.
type ServerSpec struct {
	ID       netsim.HostID
	Provider string
	// Claimed is the provider's advertised country (ISO code).
	Claimed string
	// GroupKey clusters servers claimed to share one physical location
	// (provider/AS//24, as in Fleet.DataCenterGroups); empty means the
	// server is in no group.
	GroupKey string
}

// Source enumerates a fleet for the streaming auditor. Specs must be
// cheap: the feeder calls Spec once per server per pass.
type Source interface {
	Len() int
	Spec(i int) ServerSpec
}

// Provisioner is an optional Source extension for fleets whose hosts do
// not pre-exist in the network: the scheduler provisions each batch's
// hosts just before measuring and releases them right after assessment,
// so the network holds O(batch) synthetic hosts, never O(fleet).
type Provisioner interface {
	// Provision registers the hosts for the given specs.
	Provision(specs []ServerSpec) error
	// Release deregisters them again.
	Release(specs []ServerSpec)
}

// FleetSource adapts a materialized proxy.Fleet (hosts already
// registered in the network) to the streaming auditor, enumerating
// servers in the same provider-then-ID order as Fleet.Servers.
type FleetSource struct {
	servers []*proxy.Server
}

// NewFleetSource builds a source over the fleet's current servers.
func NewFleetSource(f *proxy.Fleet) *FleetSource {
	return &FleetSource{servers: f.Servers()}
}

// Len implements Source.
func (s *FleetSource) Len() int { return len(s.servers) }

// Spec implements Source.
func (s *FleetSource) Spec(i int) ServerSpec {
	sv := s.servers[i]
	return ServerSpec{
		ID:       sv.Host.ID,
		Provider: sv.Provider,
		Claimed:  sv.ClaimedCountry,
		// Same key format as Fleet.DataCenterGroups, so the group
		// disambiguation partitions the fleet like the figures do.
		GroupKey: fmt.Sprintf("%s/AS%d/%s", sv.Provider, sv.Host.ASN, sv.Host.Prefix24),
	}
}
