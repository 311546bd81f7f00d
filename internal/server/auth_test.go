package server

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestNewGuardValidation: configuration errors surface at startup.
func TestNewGuardValidation(t *testing.T) {
	cases := []struct {
		name    string
		clients []ClientConfig
	}{
		{"empty token", []ClientConfig{{Name: "a"}}},
		{"empty name", []ClientConfig{{Token: "t"}}},
		{"duplicate token", []ClientConfig{
			{Token: "t", Name: "a"}, {Token: "t", Name: "b"},
		}},
	}
	for _, tc := range cases {
		if _, err := NewGuard(tc.clients); err == nil {
			t.Errorf("%s: NewGuard accepted a bad config", tc.name)
		}
	}
	if _, err := NewGuard([]ClientConfig{{Token: "t", Name: "a"}}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// TestLoadGuard: the -auth file format.
func TestLoadGuard(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tokens.json")
	if err := os.WriteFile(path, []byte(`[{"token":"t1","name":"ci","max_jobs":4}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := LoadGuard(path)
	if err != nil {
		t.Fatal(err)
	}
	if c := g.clients["t1"]; c == nil || c.name != "ci" || c.maxJobs != 4 {
		t.Fatalf("loaded client: %+v", g.clients["t1"])
	}

	for name, content := range map[string]string{
		"missing":   "",
		"bad json":  "{not json",
		"no client": "[]",
	} {
		p := filepath.Join(dir, "bad.json")
		if name == "missing" {
			p = filepath.Join(dir, "does-not-exist.json")
		} else if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadGuard(p); err == nil {
			t.Errorf("%s tokens file accepted", name)
		}
	}
}

// TestGuardTokenBucket exercises allow() with synthetic clocks — no
// sleeping, no flakes.
func TestGuardTokenBucket(t *testing.T) {
	g, err := NewGuard([]ClientConfig{
		{Token: "open", Name: "open"},
		{Token: "slow", Name: "slow", Rate: 2, Burst: 2},
		{Token: "budget", Name: "budget", Burst: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()

	// Unlimited client never blocks.
	open := g.clients["open"]
	for i := 0; i < 1000; i++ {
		if !open.allow(now) {
			t.Fatal("unlimited client throttled")
		}
	}

	// Rate-limited client: burst of 2, then refill at 2/s.
	slow := g.clients["slow"]
	if !slow.allow(now) || !slow.allow(now) {
		t.Fatal("burst tokens not granted")
	}
	if slow.allow(now) {
		t.Fatal("third immediate request allowed past burst")
	}
	if slow.allow(now.Add(100 * time.Millisecond)) {
		t.Fatal("allowed before a full token refilled")
	}
	// 100ms earlier drained the fraction; 600ms later the bucket holds
	// 2/s * 0.6s = 1.2 tokens.
	if !slow.allow(now.Add(700 * time.Millisecond)) {
		t.Fatal("token not refilled after 700ms at 2/s")
	}

	// Fixed budget (Rate 0, Burst > 0) never refills.
	budget := g.clients["budget"]
	for i := 0; i < 3; i++ {
		if !budget.allow(now) {
			t.Fatalf("budget request %d denied", i)
		}
	}
	if budget.allow(now.Add(time.Hour)) {
		t.Fatal("fixed budget refilled")
	}
}

// TestGuardWrap: the HTTP semantics of the front door.
func TestGuardWrap(t *testing.T) {
	g, err := NewGuard([]ClientConfig{{Token: "s3cret", Name: "ci", MaxJobs: 2}})
	if err != nil {
		t.Fatal(err)
	}
	var gotClient Client
	var gotOK bool
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotClient, gotOK = ClientFromRequest(r)
		w.WriteHeader(http.StatusNoContent)
	})
	ts := httptest.NewServer(g.Wrap(inner))
	defer ts.Close()

	call := func(path, auth string) *http.Response {
		req, _ := http.NewRequest("GET", ts.URL+path, nil)
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// No credential and a wrong credential are 401 with a challenge.
	for _, auth := range []string{"", "Bearer wrong", "Basic s3cret"} {
		resp := call("/v1/sweeps", auth)
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("auth %q: status %d, want 401", auth, resp.StatusCode)
		}
		if resp.Header.Get("WWW-Authenticate") == "" {
			t.Fatalf("auth %q: missing WWW-Authenticate challenge", auth)
		}
	}

	// The scheme word is case-insensitive per RFC 7235; the handler sees
	// the authenticated principal either way.
	for _, auth := range []string{"Bearer s3cret", "bearer s3cret"} {
		gotOK = false
		if resp := call("/v1/sweeps", auth); resp.StatusCode != http.StatusNoContent {
			t.Fatalf("auth %q: status %d, want 204", auth, resp.StatusCode)
		}
		if !gotOK || gotClient.Name != "ci" || gotClient.MaxJobs != 2 {
			t.Fatalf("auth %q: client %+v (ok=%v)", auth, gotClient, gotOK)
		}
	}

	// Fleet plumbing stays reachable without credentials.
	for _, path := range []string{"/healthz", "/metrics", "/v1/version"} {
		if resp := call(path, ""); resp.StatusCode != http.StatusNoContent {
			t.Fatalf("open path %s: status %d", path, resp.StatusCode)
		}
	}

	// A nil Guard wraps to the handler unchanged.
	var nilGuard *Guard
	if nilGuard.Wrap(inner) == nil {
		t.Fatal("nil Guard.Wrap returned nil")
	}
	nts := httptest.NewServer(nilGuard.Wrap(inner))
	defer nts.Close()
	resp, err := http.Get(nts.URL + "/v1/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("nil guard: status %d", resp.StatusCode)
	}
}

// TestGuardRateLimitHTTP: over-rate requests get 429 + Retry-After.
func TestGuardRateLimitHTTP(t *testing.T) {
	g, err := NewGuard([]ClientConfig{{Token: "t", Name: "burst", Burst: 2}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})))
	defer ts.Close()

	for i := 0; i < 2; i++ {
		req, _ := http.NewRequest("GET", ts.URL+"/v1/sweeps", nil)
		req.Header.Set("Authorization", "Bearer t")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	req, _ := http.NewRequest("GET", ts.URL+"/v1/sweeps", nil)
	req.Header.Set("Authorization", "Bearer t")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over budget: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestCheckJobQuota: quota applies only when a guard authenticated the
// request and the client has a cap.
func TestCheckJobQuota(t *testing.T) {
	g, err := NewGuard([]ClientConfig{
		{Token: "capped", Name: "capped", MaxJobs: 5},
		{Token: "free", Name: "free"},
	})
	if err != nil {
		t.Fatal(err)
	}
	request := func(token string) *http.Request {
		var got *http.Request
		h := g.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { got = r }))
		req := httptest.NewRequest("POST", "/v1/sweeps", nil)
		req.Header.Set("Authorization", "Bearer "+token)
		h.ServeHTTP(httptest.NewRecorder(), req)
		return got
	}

	capped := request("capped")
	if err := CheckJobQuota(capped, 5); err != nil {
		t.Fatalf("at quota rejected: %v", err)
	}
	if err := CheckJobQuota(capped, 6); err == nil {
		t.Fatal("over quota allowed")
	}
	if err := CheckJobQuota(request("free"), 1_000_000); err != nil {
		t.Fatalf("uncapped client rejected: %v", err)
	}
	if err := CheckJobQuota(httptest.NewRequest("POST", "/v1/sweeps", nil), 1_000_000); err != nil {
		t.Fatalf("unguarded request rejected: %v", err)
	}
}

// TestCheckAdmin: the admin scope gates operational endpoints (pprof,
// timelines) — granted per client in the tokens file,
// implicit when the daemon runs unguarded, and the "admin" flag
// round-trips through LoadGuard.
func TestCheckAdmin(t *testing.T) {
	g, err := NewGuard([]ClientConfig{
		{Token: "op", Name: "operator", Admin: true},
		{Token: "ro", Name: "reader"},
	})
	if err != nil {
		t.Fatal(err)
	}
	request := func(token string) *http.Request {
		var got *http.Request
		h := g.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { got = r }))
		req := httptest.NewRequest("GET", "/debug/pprof/", nil)
		req.Header.Set("Authorization", "Bearer "+token)
		h.ServeHTTP(httptest.NewRecorder(), req)
		return got
	}

	if err := checkAdmin(request("op")); err != nil {
		t.Fatalf("admin client rejected: %v", err)
	}
	err = checkAdmin(request("ro"))
	if err == nil {
		t.Fatal("non-admin client allowed")
	}
	if !strings.Contains(err.Error(), "reader") {
		t.Errorf("error does not name the client: %v", err)
	}
	// No guard in play: an open daemon has no principals to scope.
	if err := checkAdmin(httptest.NewRequest("GET", "/debug/pprof/", nil)); err != nil {
		t.Fatalf("unguarded request rejected: %v", err)
	}

	// The tokens-file flag reaches the client record.
	dir := t.TempDir()
	path := filepath.Join(dir, "tokens.json")
	if err := os.WriteFile(path, []byte(`[{"token":"t","name":"ops","admin":true}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	lg, err := LoadGuard(path)
	if err != nil {
		t.Fatal(err)
	}
	if c := lg.clients["t"]; c == nil || !c.admin {
		t.Fatalf("admin flag lost through LoadGuard: %+v", lg.clients["t"])
	}
}
