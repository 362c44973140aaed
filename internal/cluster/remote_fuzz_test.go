package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/eurosys26p57/chimera/internal/store"
)

// Hostile-peer answer shapes: the body as sent, or a Content-Length that
// promises more than is sent before the connection drops.
const (
	answerPlain uint8 = iota
	answerTruncated
	answerModes
)

// hostilePeer answers every request with status and body, shaped by mode.
func hostilePeer(status int, mode uint8, body []byte) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if mode%answerModes == answerTruncated {
			w.Header().Set("Content-Length", strconv.Itoa(len(body)+16))
			w.WriteHeader(status)
			w.Write(body)
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
				}
			}
			return
		}
		w.WriteHeader(status)
		w.Write(body)
	}))
}

// documentedErr reports whether err is one of the failures Remote
// documents: a transport error, or one of its own "cluster:" errors.
func documentedErr(err error) bool {
	var ue *url.Error
	return errors.As(err, &ue) || strings.HasPrefix(err.Error(), "cluster: ")
}

// FuzzRemotePeer drives the client side of the peer protocol against a
// hostile peer that answers with arbitrary statuses and bytes. Get and Put
// must not panic, must return only their documented outcomes — a verified
// entry for the asked key only on 200, a clean miss only on 404, an
// accepted offer only on 200/204, a transport or "cluster:" error
// otherwise — and must leave no goroutine running once the peer is gone.
func FuzzRemotePeer(f *testing.F) {
	const key = "chbp|rv64gc|k1"
	good := store.EncodeEntry(store.NewEntry(key, []byte(`{"m":1}`), []byte("image bytes")))
	wrong := store.EncodeEntry(store.NewEntry("other", nil, []byte("x")))
	for _, seed := range []struct {
		status uint16
		mode   uint8
		body   []byte
	}{
		{200, answerPlain, good},
		{200, answerPlain, wrong},
		{200, answerPlain, good[:len(good)/2]},
		{200, answerTruncated, good},
		{200, answerPlain, nil},
		{404, answerPlain, []byte("not found")},
		{204, answerPlain, nil},
		{500, answerPlain, []byte("induced")},
		{302, answerPlain, nil},
	} {
		f.Add(seed.status, seed.mode, seed.body)
	}
	f.Fuzz(func(t *testing.T, rawStatus uint16, mode uint8, body []byte) {
		status := 200 + int(rawStatus)%400
		before := runtime.NumGoroutine()
		peer := hostilePeer(status, mode, body)
		transport := &http.Transport{}
		r := NewRemote(peer.URL, &http.Client{Transport: transport, Timeout: 5 * time.Second})
		ctx := context.Background()

		e, ok, err := r.Get(ctx, key)
		switch {
		case err != nil:
			if e != nil || ok {
				t.Fatalf("Get: error %v with entry %v, ok %v", err, e != nil, ok)
			}
			if !documentedErr(err) {
				t.Fatalf("Get: undocumented error %T: %v", err, err)
			}
		case ok:
			if status != http.StatusOK || e == nil || e.Key != key {
				t.Fatalf("Get: hit on status %d (entry %v)", status, e != nil)
			}
		default:
			if status != http.StatusNotFound || e != nil {
				t.Fatalf("Get: clean miss on status %d", status)
			}
		}

		err = r.Put(ctx, store.NewEntry(key, nil, []byte("offer")))
		if err == nil && status != http.StatusOK && status != http.StatusNoContent {
			t.Fatalf("Put: accepted on status %d", status)
		}
		if err != nil && !documentedErr(err) {
			t.Fatalf("Put: undocumented error %T: %v", err, err)
		}

		peer.Close()
		transport.CloseIdleConnections()
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines before the peer, %d after it closed", before, runtime.NumGoroutine())
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}
