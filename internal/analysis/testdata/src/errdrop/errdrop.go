// Package errdrop holds errdrop analyzer fixtures, distilled from the
// real findings in proxy/forward.go's DialThrough, which dropped the
// Close error on all three CONNECT failure paths, and from the
// SetReadDeadline pattern in the same file.
package errdrop

type conn struct{}

func (conn) Close() error               { return nil }
func (conn) SetDeadline(ms int) error   { return nil }
func (conn) SetReadDeadline(int) error  { return nil }
func (conn) SetWriteDeadline(int) error { return nil }

func silentDrops(c conn) {
	c.Close()              // want "Close error silently dropped"
	c.SetReadDeadline(10)  // want "SetReadDeadline error silently dropped"
	c.SetWriteDeadline(10) // want "SetWriteDeadline error silently dropped"
	c.SetDeadline(10)      // want "SetDeadline error silently dropped"
}

func explicitlyDiscarded(c conn) {
	_ = c.Close()
	_ = c.SetReadDeadline(10)
}

func deferredCleanup(c conn) {
	defer c.Close()
}

func handled(c conn) error {
	if err := c.SetDeadline(10); err != nil {
		return err
	}
	return c.Close()
}

// lifecycle: Drain / Sync / Shutdown / Flush are service-quiesce
// methods whose errors mean "state was not persisted".
type service struct{}

func (service) Drain() error    { return nil }
func (service) Sync() error     { return nil }
func (service) Shutdown() error { return nil }
func (service) Flush() error    { return nil }

func lifecycleDrops(s service) {
	s.Drain()    // want "Drain error silently dropped"
	s.Sync()     // want "Sync error silently dropped"
	s.Shutdown() // want "Shutdown error silently dropped"
	s.Flush()    // want "Flush error silently dropped"
}

func lifecycleHandled(s service) error {
	_ = s.Drain()
	defer s.Shutdown()
	if err := s.Flush(); err != nil {
		return err
	}
	return s.Sync()
}

// tupleSync: a Sync returning (stats, error) — the stream Auditor
// shape — is out of the analyzer's single-error scope and stays
// silent.
type statsSyncer struct{}

func (statsSyncer) Sync() (int, error) { return 0, nil }

func tupleSyncIgnored(s statsSyncer) {
	s.Sync()
}

// voidCloser: Close methods that do not return an error are not drops.
type voidCloser struct{}

func (voidCloser) Close() {}

func closeWithoutError(v voidCloser) {
	v.Close()
}

// allowedDrop: the directive keeps a deliberate best-effort close.
func allowedDrop(c conn) {
	//lint:allow errdrop best-effort close on an already-failed connection
	c.Close()
}

// trailingAllow: a directive that shares its line with code covers only
// that line, never the unrelated call on the next one.
func trailingAllow(a, b conn) {
	a.Close() //lint:allow errdrop best-effort close on an already-failed connection
	b.Close() // want "Close error silently dropped"
}
