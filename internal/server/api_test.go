package server_test

// The job API contract, run against both services behind NewHandler: the
// daemon (server.New) and the cluster coordinator (cluster.New). Both must
// answer the same requests with the same statuses and {"error": ...}
// bodies, so clients point at either one by changing only a URL.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"greencell/internal/cluster"
	"greencell/internal/server"
)

func TestAPIContract(t *testing.T) {
	services := []struct {
		name    string
		start   func(journal string) (server.Service, error)
		unknown string // a well-formed ID no job has
	}{
		{"daemon", func(journal string) (server.Service, error) {
			return server.New(server.Config{JournalPath: journal})
		}, "job-999999"},
		{"coordinator", func(journal string) (server.Service, error) {
			return cluster.New(cluster.Config{JournalPath: journal})
		}, "cjob-999999"},
	}
	oversize := `{"spec":{"label":"` + strings.Repeat("x", 1<<20) + `"}}`
	cases := []struct {
		name, method, path, body string
		want                     int
	}{
		{"malformed JSON", http.MethodPost, "/v1/jobs", `{"spec":`, 400},
		{"body over 1 MiB", http.MethodPost, "/v1/jobs", oversize, 413},
		{"unknown job GET", http.MethodGet, "/v1/jobs/{unknown}", "", 404},
		{"unknown job DELETE", http.MethodDelete, "/v1/jobs/{unknown}", "", 404},
		{"unknown job metrics", http.MethodGet, "/v1/jobs/{unknown}/metrics", "", 404},
		{"negative from_slot", http.MethodGet, "/v1/jobs/{unknown}/metrics?from_slot=-1", "", 400},
		{"non-numeric from_slot", http.MethodGet, "/v1/jobs/{unknown}/metrics?from_slot=x", "", 400},
		{"ready before drain", http.MethodGet, "/readyz", "", 200},
	}
	for _, svc := range services {
		t.Run(svc.name, func(t *testing.T) {
			s, err := svc.start(filepath.Join(t.TempDir(), "journal.jsonl"))
			if err != nil {
				t.Fatalf("start: %v", err)
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			do := func(method, path, body string) (int, string) {
				t.Helper()
				req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
				if err != nil {
					t.Fatalf("%s %s: %v", method, path, err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatalf("%s %s: %v", method, path, err)
				}
				defer resp.Body.Close()
				data, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatalf("%s %s: reading body: %v", method, path, err)
				}
				return resp.StatusCode, string(data)
			}

			for _, c := range cases {
				path := strings.ReplaceAll(c.path, "{unknown}", svc.unknown)
				code, body := do(c.method, path, c.body)
				if code != c.want {
					t.Errorf("%s: %s %s = %d %s, want %d", c.name, c.method, path, code, body, c.want)
					continue
				}
				if code >= 400 {
					var e map[string]string
					if err := json.Unmarshal([]byte(body), &e); err != nil || e["error"] == "" {
						t.Errorf("%s: body %q is not an {\"error\": ...} object", c.name, body)
					}
				}
			}

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := s.Drain(ctx); err != nil {
				t.Fatalf("Drain: %v", err)
			}
			if code, body := do(http.MethodGet, "/healthz", ""); code != 200 {
				t.Errorf("healthz after drain = %d %s, want 200 (liveness is not readiness)", code, body)
			}
			if code, body := do(http.MethodGet, "/readyz", ""); code != 503 || !strings.Contains(body, "draining") {
				t.Errorf("readyz after drain = %d %s, want 503 draining", code, body)
			}
		})
	}
}
