package service

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ffmr/internal/graph"
)

// TestSubmitBodyTooLarge: a submit body over MaxSubmitBytes is answered
// with 413 and does not stop the service from taking the next one.
func TestSubmitBodyTooLarge(t *testing.T) {
	svc := startService(t, testCluster(2), Quotas{MaxConcurrent: 1})
	defer svc.Close()

	body := io.MultiReader(
		strings.NewReader(`{"tenant":"`),
		io.LimitReader(repeatReader('a'), MaxSubmitBytes),
		strings.NewReader(`"}`))
	rec := httptest.NewRecorder()
	svc.handleSubmit(rec, httptest.NewRequest(http.MethodPost, "/v1/submit", body))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit: %d %s, want 413", rec.Code, rec.Body)
	}

	c := NewClient(svc.Addr())
	defer c.Close()
	in := smallWorld(t, 60, 2, 5)
	ji, err := c.Submit(&SubmitRequest{Tenant: "acme", Handle: "small", Graph: graphSpec(in)})
	if err != nil {
		t.Fatalf("submit after an oversized one: %v", err)
	}
	if res, err := c.Wait(ji.ID, time.Minute); err != nil || res.Flow != oracle(t, in) {
		t.Fatalf("job after an oversized submit: %+v, %v", res, err)
	}
}

// TestSubmitCapacityAboveCapInf: a capacity above graph.CapInf, past which
// summing capacities could overflow, is answered with 400; CapInf itself
// is a capacity (super source and sink edges carry it).
func TestSubmitCapacityAboveCapInf(t *testing.T) {
	svc := startService(t, testCluster(2), Quotas{MaxConcurrent: 1})
	defer svc.Close()

	submit := func(capacity int64) *httptest.ResponseRecorder {
		body := fmt.Sprintf(`{"tenant":"acme","handle":"h%d","graph":{"num_vertices":3,"source":0,"sink":2,`+
			`"edges":[[0,1,%d,1],[1,2,1]]}}`, capacity, capacity)
		rec := httptest.NewRecorder()
		svc.handleSubmit(rec, httptest.NewRequest(http.MethodPost, "/v1/submit", strings.NewReader(body)))
		return rec
	}
	if rec := submit(graph.CapInf + 1); rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "CapInf") {
		t.Fatalf("capacity CapInf+1: %d %s, want 400 naming CapInf", rec.Code, rec.Body)
	}
	if rec := submit(graph.CapInf); rec.Code != http.StatusAccepted {
		t.Fatalf("capacity CapInf: %d %s, want 202", rec.Code, rec.Body)
	}
}

// repeatReader yields the same byte forever.
type repeatReader byte

func (r repeatReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r)
	}
	return len(p), nil
}
