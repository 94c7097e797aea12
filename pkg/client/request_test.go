package client

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// uniqueJar hands every request a cookie no other request gets.
type uniqueJar struct{ n atomic.Int64 }

func (j *uniqueJar) SetCookies(*url.URL, []*http.Cookie) {}

func (j *uniqueJar) Cookies(*url.URL) []*http.Cookie {
	return []*http.Cookie{{Name: "n", Value: strconv.FormatInt(j.n.Add(1), 10)}}
}

// doneStream is a submit answer: the job resource, then its trailer.
const doneStream = `{"id":"j000001","state":"done"}` + "\n" + `{"id":"j000001","state":"done"}` + "\n"

// TestConcurrentSubmitsOwnTheirHeaders: two goroutines submit through one
// Client whose http.Client has a cookie jar, which writes into each
// request's header map. Every request reaches the server with exactly
// the one cookie the jar gave it and the fixed header fields, and the
// header values the requests share read the same afterwards.
func TestConcurrentSubmitsOwnTheirHeaders(t *testing.T) {
	var mu sync.Mutex
	var cookies []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := r.Header
		if _, ok := h["User-Agent"]; ok || h.Get("Accept-Encoding") != "identity" ||
			h.Get("Accept") != ndjson || h.Get("Content-Type") != "application/json" {
			t.Errorf("request header %v", h)
		}
		mu.Lock()
		cookies = append(cookies, strings.Join(h.Values("Cookie"), "|"))
		mu.Unlock()
		w.Header().Set("Content-Type", ndjson)
		io.WriteString(w, doneStream) //nolint:errcheck // the client reports a short body
	}))
	defer ts.Close()
	c := New(ts.URL, WithHTTPClient(&http.Client{Jar: &uniqueJar{}}))

	const goroutines, submits = 2, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < submits; i++ {
				job, err := c.Submit(context.Background(), "SELECT 1")
				if err != nil {
					t.Error(err)
					return
				}
				if st, err := job.Wait(context.Background()); err != nil || st.State != "done" {
					t.Errorf("Wait = %+v, %v", st, err)
				}
			}
		}()
	}
	wg.Wait()

	if len(cookies) != goroutines*submits {
		t.Fatalf("%d requests reached the server, want %d", len(cookies), goroutines*submits)
	}
	seen := map[string]bool{}
	for _, c := range cookies {
		if !strings.HasPrefix(c, "n=") || strings.ContainsAny(c, ";|") || seen[c] {
			t.Fatalf("a request carried the cookies %q; all: %q", c, cookies)
		}
		seen[c] = true
	}
	for _, v := range []struct {
		vals []string
		want string
	}{{identity, "identity"}, {noUserAgent, ""}, {jsonType, "application/json"}, {ndjsonType, ndjson}} {
		if len(v.vals) != 1 || cap(v.vals) != 1 || v.vals[0] != v.want {
			t.Errorf("a shared header value is now %q (cap %d), want [%q]", v.vals, cap(v.vals), v.want)
		}
	}
}

// TestSubmitRequestReplays: a submit's request carries its length, and
// GetBody — which the transport uses to resend a request whose
// keep-alive connection the server had closed — returns the body's bytes
// again.
func TestSubmitRequestReplays(t *testing.T) {
	var checked bool
	hc := &http.Client{Transport: transportFunc(func(r *http.Request) (*http.Response, error) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			return nil, err
		}
		if r.ContentLength != int64(len(body)) || r.GetBody == nil {
			t.Fatalf("content length %d for %d bytes, GetBody set: %v", r.ContentLength, len(body), r.GetBody != nil)
		}
		for i := 0; i < 2; i++ {
			rc, err := r.GetBody()
			if err != nil {
				t.Fatal(err)
			}
			again, err := io.ReadAll(rc)
			if err != nil || !bytes.Equal(again, body) {
				t.Fatalf("GetBody read %q (%v), the body was %q", again, err, body)
			}
		}
		checked = true
		return &http.Response{StatusCode: http.StatusAccepted, Header: http.Header{"Content-Type": {ndjson}},
			Body: io.NopCloser(strings.NewReader(doneStream)), Request: r}, nil
	})}
	c := New("http://crowddbd.invalid", WithHTTPClient(hc), WithSession("s000001"))
	job, err := c.Submit(context.Background(), `SELECT "é" <&>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Close(); err != nil || !checked {
		t.Fatalf("Close = %v, request checked: %v", err, checked)
	}
}

type transportFunc func(*http.Request) (*http.Response, error)

func (f transportFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }
