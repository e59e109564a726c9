package experiments

import (
	"activegeo/internal/stream"
)

// StreamingAuditor wires an audit engine to the lab's constellation,
// client, environment, calibrated CBG++, adversary plan and telemetry,
// with the audit's measurement stream seed (salt 17); the auditor
// derives its fault policy from the network (measure.PolicyFor).
// Audit is one full-fleet pass of such an auditor; further passes
// re-measure only the servers whose dependencies changed.
// batchSize/queueDepth ≤ 0 take the stream package defaults.
func (l *Lab) StreamingAuditor(batchSize, queueDepth int) *stream.Auditor {
	return stream.New(l.streamConfig(batchSize, queueDepth))
}

func (l *Lab) streamConfig(batchSize, queueDepth int) stream.Config {
	return stream.Config{
		Cons:        l.Cons,
		Client:      l.Client,
		Env:         l.Env,
		Locator:     l.CBGpp,
		Seed:        l.streamSeed(17),
		Adversary:   l.Adversary,
		Concurrency: l.Concurrency(),
		BatchSize:   batchSize,
		QueueDepth:  queueDepth,
		Telemetry:   l.Telemetry,
	}
}

// StreamSource enumerates the lab's fleet for the audit engine, in
// Fleet.Servers order.
func (l *Lab) StreamSource() *stream.FleetSource {
	return stream.NewFleetSource(l.Fleet)
}
