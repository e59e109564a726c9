package atlasd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// HTTPError is a non-2xx server response. It unwraps to ErrServer, so
// errors.Is(err, ErrServer) keeps working for every caller.
type HTTPError struct {
	Status        int
	Msg           string
	RetryAfterSec int // parsed Retry-After hint, 0 when absent
}

func (e *HTTPError) Error() string {
	return fmt.Sprintf("atlasd: server returned %d: %s", e.Status, e.Msg)
}

// Is makes errors.Is(err, ErrServer) true for every HTTPError.
func (e *HTTPError) Is(target error) bool { return target == ErrServer }

// Temporary reports whether the request is worth retrying: shed load
// (429). A 503 means the server is draining for shutdown — terminal.
func (e *HTTPError) Temporary() bool { return e.Status == http.StatusTooManyRequests }

// ErrMalformed is returned for a 2xx response the client cannot use: a
// body that does not decode, or a served landmark list that breaks the
// draw's contract (a probe in phase one, a landmark off the requested
// continent, a missing ID or an invalid location).
var ErrMalformed = errors.New("atlasd: malformed response")

// Client talks to a coordination server.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient defaults to a client with a 10-second timeout.
	HTTPClient *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return &http.Client{Timeout: 10 * time.Second}
}

func (c *Client) do(req *http.Request, out interface{}) error {
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		he := &HTTPError{Status: resp.StatusCode, Msg: readErr(resp.Body)}
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
			he.RetryAfterSec = ra
		}
		return he
	}
	if out == nil {
		_, err := io.Copy(io.Discard, resp.Body) // drain for keep-alive
		return err
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return nil
}

func (c *Client) get(ctx context.Context, path string, out interface{}) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return err
	}
	return c.do(req, out)
}

func readErr(r io.Reader) string {
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(io.LimitReader(r, 4096)).Decode(&e); err == nil && e.Error != "" {
		return e.Error
	}
	return "unknown error"
}

// Model fetches a landmark's delay-distance model.
func (c *Client) Model(ctx context.Context, landmarkID string) (*ModelInfo, error) {
	var out ModelInfo
	if err := c.get(ctx, "/v1/model/"+url.PathEscape(landmarkID), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Upload reports a measurement batch back to the server.
func (c *Client) Upload(ctx context.Context, rep Report) error {
	body, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/report", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, nil)
}

// Metrics fetches the server's observability snapshot.
func (c *Client) Metrics(ctx context.Context) (*Metrics, error) {
	var out Metrics
	if err := c.get(ctx, "/v1/metrics", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Healthy reports whether the server answers its liveness probe.
func (c *Client) Healthy(ctx context.Context) bool {
	var out map[string]string
	return c.get(ctx, "/v1/healthz", &out) == nil && out["status"] == "ok"
}

// Retry wraps one client call with shed-aware retries: 429 responses
// (bounded admission shedding load) are retried with exponential
// backoff, every other failure — including 503, the server draining
// for shutdown — is returned immediately. The backoff starts small so
// in-process soak tests converge quickly; the server's Retry-After is
// a hint for human-scale clients, not a mandate. 503 is terminal
// because the only process that could answer is going away.
func Retry(ctx context.Context, attempts int, fn func() error) error {
	if attempts < 1 {
		attempts = 1
	}
	backoff := time.Millisecond
	var err error
	for i := 0; i < attempts; i++ {
		err = fn()
		var he *HTTPError
		if err == nil || !errors.As(err, &he) || !he.Temporary() {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		if backoff < 64*time.Millisecond {
			backoff *= 2
		}
	}
	return err
}
