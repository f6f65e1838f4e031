package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
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

// repeatReader yields the same byte forever.
type repeatReader byte

func (r repeatReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r)
	}
	return len(p), nil
}
