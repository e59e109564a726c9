package experiments

// Fingerprint serializes everything observable about an audit run: every
// per-server verdict in fleet order, the failure records, and the
// aggregate tallies. Two runs are "identical" iff their fingerprints are
// byte-equal; the determinism tests pin a golden SHA-256 of it. It is
// the fingerprint of the engine store the run was read from
// (stream.Store.Fingerprint).
func Fingerprint(run *AuditRun) string {
	return run.store.Fingerprint()
}
