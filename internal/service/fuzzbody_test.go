package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// fuzzBodyStatuses are the statuses POST /fuzz documents for a request
// body: 202 (campaign started), 400 (decodeBody, decodeImage, the seed
// count and fuzzsvc.New all map to ErrBadRequest), 413 (an oversized body)
// and 429 (the campaign cap).
var fuzzBodyStatuses = map[int]bool{
	http.StatusAccepted:              true,
	http.StatusBadRequest:            true,
	http.StatusRequestEntityTooLarge: true,
	http.StatusTooManyRequests:       true,
}

// FuzzFuzzBody drives arbitrary POST /fuzz bodies through the in-process
// handler of a fresh server, three times each against a cap of two
// campaigns so the cap is exercised too. It asserts no panic, only
// documented statuses, an id on every 202, every started campaign stopped
// by Shutdown, and no goroutine left behind.
func FuzzFuzzBody(f *testing.F) {
	img, err := workload.FuzzTarget(riscv.RV64GC, true)
	if err != nil {
		f.Fatal(err)
	}
	image := wire(f, img)
	for _, body := range []fuzzHTTPRequest{
		{Image: image, MaxExecs: 200, ExecBudget: 10_000},
		{Image: image, Seeds: [][]byte{{1, 2, 3}, nil, workload.FuzzTargetCrashInput()}, MaxExecs: 500,
			MaxInput: 16, Seed: 7, StopOnCrash: true, DeadlineSeconds: 0.5},
		{Image: image, MaxExecs: 1 << 62, MaxInput: 1 << 30, ExecBudget: 1 << 62, DeadlineSeconds: 1e300},
		{Image: image[:len(image)/2]},
		{Image: image, Seeds: make([][]byte, fuzzMaxSeeds+1)},
	} {
		b, err := json.Marshal(body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, raw := range []string{``, `{}`, `null`, `[]`, `{"image":"AAAA"}`, `{"bogus":1}`,
		`{"image":` + string(mustJSON(f, image)) + `,"deadline_seconds":-1}`, `{"image":`} {
		f.Add([]byte(raw))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		before := runtime.NumGoroutine()
		srv := New(Config{Workers: 1, MaxCampaigns: 2})
		h := srv.Handler()
		for i := 0; i < 3; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/fuzz", bytes.NewReader(body)))
			if !fuzzBodyStatuses[rec.Code] {
				t.Fatalf("post %d: undocumented status %d: %s", i, rec.Code, rec.Body.Bytes())
			}
			if rec.Code == http.StatusAccepted {
				var out fuzzCreateResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out.ID == "" {
					t.Fatalf("post %d: 202 without a campaign id: %s", i, rec.Body.Bytes())
				}
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown did not stop the campaigns: %v", err)
		}
		if n := srv.fuzz.activeCount(); n != 0 {
			t.Fatalf("%d campaigns still active after Shutdown", n)
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines before the server, %d after Shutdown", before, runtime.NumGoroutine())
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

func mustJSON(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}
