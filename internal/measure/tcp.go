package measure

import (
	"context"
	"errors"
	"net"
	"strings"
	"syscall"
	"time"
)

// ConnectRTT measures one real TCP handshake round trip to addr
// (host:port) using the operating system's connect primitive, exactly
// like the paper's command-line tool: the timer stops when the
// connection is accepted or refused — both mean the second packet of the
// three-way handshake arrived — and the connection is closed without
// sending any data. Errors that originate from intermediate routers
// ("network unreachable" and friends) do not measure a full round trip
// and are reported as errors.
func ConnectRTT(ctx context.Context, addr string) (time.Duration, error) {
	var d net.Dialer
	//lint:allow simclock real TCP handshake timing — this is the paper's live command-line tool, not a simulated path
	start := time.Now()
	conn, err := d.DialContext(ctx, "tcp", addr)
	//lint:allow simclock real TCP handshake timing — wall clock is the measurement here
	elapsed := time.Since(start)
	if err == nil {
		_ = conn.Close()
		return elapsed, nil
	}
	if errors.Is(err, syscall.ECONNREFUSED) {
		// RST received: still one full round trip.
		return elapsed, nil
	}
	return 0, err
}

// MinConnectRTT takes up to attempts measurements and returns the
// fastest, skipping transient failures; it fails only when every attempt
// fails.
func MinConnectRTT(ctx context.Context, addr string, attempts int) (time.Duration, error) {
	return minRTT(ctx, addr, attempts, ConnectRTT)
}

// minRTT is MinConnectRTT over an injectable probe — the same min-of-k
// loop, parameterized so the loss/partial-failure paths are testable
// without a lossy real network.
func minRTT(ctx context.Context, addr string, tries int, probe func(context.Context, string) (time.Duration, error)) (time.Duration, error) {
	var best time.Duration
	var lastErr error
	ok := false
	for i := 0; i < attempts(tries); i++ {
		rtt, err := probe(ctx, addr)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				break
			}
			continue
		}
		if !ok || rtt < best {
			best, ok = rtt, true
		}
	}
	if !ok {
		if lastErr == nil {
			lastErr = errors.New("measure: no successful attempts")
		}
		return 0, lastErr
	}
	return best, nil
}

// IsRefused reports whether an error is the connection-refused condition
// that still constitutes a valid round-trip measurement. Exposed for
// callers shelling the primitive directly.
func IsRefused(err error) bool {
	return errors.Is(err, syscall.ECONNREFUSED) ||
		(err != nil && strings.Contains(err.Error(), "connection refused"))
}
