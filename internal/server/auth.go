package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"
)

// Guard is the multi-tenant front door shared by allarm-serve and
// allarm-router: per-client bearer-token authentication, token-bucket
// rate limiting per client, and a per-sweep job-count quota the submit
// handlers enforce. It wraps a daemon's whole handler; the operational
// endpoints every fleet peer must reach unauthenticated — /healthz
// (router health polling), /metrics (scrapes) and /v1/version (build
// skew checks) — bypass it.
//
// A nil *Guard is an open door: every method degrades to "allow", so
// callers never need to branch on whether auth is configured.
type Guard struct {
	clients map[string]*guardClient // bearer token → client
}

// ClientConfig is one entry of the -auth tokens file: a client's
// credential and its limits.
type ClientConfig struct {
	// Token is the bearer credential (required, unique).
	Token string `json:"token"`
	// Name identifies the client in errors and logs (required).
	Name string `json:"name"`
	// MaxJobs caps the expanded job count of one sweep submission
	// (0 = unlimited).
	MaxJobs int `json:"max_jobs,omitempty"`
	// Admin grants the operational scope: sweep timelines and
	// /debug/pprof require it. Ordinary sweep submission does not.
	Admin bool `json:"admin,omitempty"`
	// Rate is the client's sustained request rate in requests/second
	// (token-bucket refill). 0 with Burst 0 means unlimited; 0 with a
	// positive Burst means a fixed, non-refilling budget (tests).
	Rate float64 `json:"rate,omitempty"`
	// Burst is the token-bucket capacity (instantaneous burst). 0 with a
	// positive Rate defaults to max(1, Rate).
	Burst int `json:"burst,omitempty"`
}

// guardClient is one authenticated principal and its token bucket.
type guardClient struct {
	name    string
	maxJobs int
	admin   bool

	unlimited bool
	mu        sync.Mutex
	tokens    float64
	burst     float64
	rate      float64 // tokens per second
	last      time.Time
}

// NewGuard builds a Guard from client configs (empty/duplicate tokens
// and empty names are configuration errors, caught at startup rather
// than at request time).
func NewGuard(clients []ClientConfig) (*Guard, error) {
	g := &Guard{clients: make(map[string]*guardClient, len(clients))}
	for i, c := range clients {
		if c.Token == "" {
			return nil, fmt.Errorf("auth: client %d: empty token", i)
		}
		if c.Name == "" {
			return nil, fmt.Errorf("auth: client %d: empty name", i)
		}
		if _, dup := g.clients[c.Token]; dup {
			return nil, fmt.Errorf("auth: client %q: duplicate token", c.Name)
		}
		burst := float64(c.Burst)
		if c.Burst == 0 && c.Rate > 0 {
			burst = c.Rate
			if burst < 1 {
				burst = 1
			}
		}
		g.clients[c.Token] = &guardClient{
			name:      c.Name,
			maxJobs:   c.MaxJobs,
			admin:     c.Admin,
			unlimited: c.Rate == 0 && c.Burst == 0,
			tokens:    burst,
			burst:     burst,
			rate:      c.Rate,
			last:      time.Now(),
		}
	}
	return g, nil
}

// LoadGuard reads a JSON array of ClientConfig from path (the -auth
// flag of both daemons).
func LoadGuard(path string) (*Guard, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("auth: %w", err)
	}
	var clients []ClientConfig
	if err := json.Unmarshal(data, &clients); err != nil {
		return nil, fmt.Errorf("auth: %s: %w", path, err)
	}
	if len(clients) == 0 {
		return nil, fmt.Errorf("auth: %s: no clients configured", path)
	}
	return NewGuard(clients)
}

// allow takes one token from the client's bucket, reporting false when
// the client is over its rate.
func (c *guardClient) allow(now time.Time) bool {
	if c.unlimited {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rate > 0 {
		c.tokens += now.Sub(c.last).Seconds() * c.rate
		if c.tokens > c.burst {
			c.tokens = c.burst
		}
	}
	c.last = now
	if c.tokens < 1 {
		return false
	}
	c.tokens--
	return true
}

// guardCtxKey carries the authenticated client through the request
// context to the submit handlers (quota enforcement).
type guardCtxKey struct{}

// Client is the authenticated principal of a request.
type Client struct {
	Name    string
	MaxJobs int
	Admin   bool
}

// ClientFromRequest returns the authenticated client of r, or ok ==
// false when the daemon runs without a Guard (open access).
func ClientFromRequest(r *http.Request) (Client, bool) {
	c, ok := r.Context().Value(guardCtxKey{}).(Client)
	return c, ok
}

// openPath reports whether the path bypasses authentication: the
// endpoints fleet peers and monitoring must reach without credentials.
func openPath(path string) bool {
	switch path {
	case "/healthz", "/metrics", "/v1/version":
		return true
	}
	return false
}

// Wrap authenticates and rate-limits every request through next. A nil
// Guard returns next unchanged.
func (g *Guard) Wrap(next http.Handler) http.Handler {
	if g == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if openPath(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		token, ok := bearerToken(r)
		if !ok {
			w.Header().Set("WWW-Authenticate", `Bearer realm="allarm"`)
			writeError(w, http.StatusUnauthorized, fmt.Errorf("missing bearer token"))
			return
		}
		c, ok := g.clients[token]
		if !ok {
			w.Header().Set("WWW-Authenticate", `Bearer realm="allarm"`)
			writeError(w, http.StatusUnauthorized, fmt.Errorf("unknown token"))
			return
		}
		if !c.allow(time.Now()) {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, fmt.Errorf("client %s over rate limit", c.name))
			return
		}
		ctx := context.WithValue(r.Context(), guardCtxKey{}, Client{Name: c.name, MaxJobs: c.maxJobs, Admin: c.admin})
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// bearerToken extracts the Authorization: Bearer credential.
func bearerToken(r *http.Request) (string, bool) {
	h := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(h) <= len(prefix) || !strings.EqualFold(h[:len(prefix)], prefix) {
		return "", false
	}
	return h[len(prefix):], true
}

// CheckJobQuota enforces a client's per-sweep job-count quota against
// an expanded sweep size: nil when allowed, the 403 error otherwise.
// The Front's submit handler calls it after expansion, which is the
// only point the real job count is known.
func CheckJobQuota(r *http.Request, jobs int) error {
	c, ok := ClientFromRequest(r)
	if !ok || c.MaxJobs <= 0 || jobs <= c.MaxJobs {
		return nil
	}
	return fmt.Errorf("sweep expands to %d jobs, over client %s's quota of %d", jobs, c.Name, c.MaxJobs)
}

// checkAdmin enforces the admin scope on operational endpoints: nil
// when the request's client is an admin, or when the daemon runs
// without a Guard (an open daemon has no principals to scope). The
// caller renders the error as 403.
func checkAdmin(r *http.Request) error {
	c, ok := ClientFromRequest(r)
	if !ok || c.Admin {
		return nil
	}
	return fmt.Errorf("client %s lacks the admin scope (operational endpoints need \"admin\": true in the tokens file)", c.Name)
}
