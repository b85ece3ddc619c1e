package crawler

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"strings"
	"sync"
	"testing"
	"time"

	"pornweb/internal/webgen"
	"pornweb/internal/webserver"
)

// wireConn records every byte the client writes, i.e. exactly what the
// server reads from the connection.
type wireConn struct {
	net.Conn
	mu  sync.Mutex
	out bytes.Buffer
}

func (c *wireConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.out.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// requests parses the plain-HTTP requests written so far.
func (c *wireConn) requests(t *testing.T) []*http.Request {
	t.Helper()
	c.mu.Lock()
	r := bufio.NewReader(bytes.NewReader(c.out.Bytes()))
	c.mu.Unlock()
	var out []*http.Request
	for {
		req, err := http.ReadRequest(r)
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatalf("parse request %d off the wire: %v", len(out)+1, err)
		}
		out = append(out, req)
	}
}

// TestSessionsShareTransport runs two sessions with different vantage
// countries and crawl phases over one transport against a live server and
// checks that sharing the pool leaks no per-session state across a reused
// connection: each request carries its own session's headers, a cookie
// one session received is never sent by the other, and the certificate
// organization is still read off a reused TLS connection.
func TestSessionsShareTransport(t *testing.T) {
	eco := webgen.Generate(webgen.Params{Seed: 7, Scale: 0.02})
	srv, err := webserver.Start(eco)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	var svc *webgen.Service
	for _, s := range eco.Services {
		if s.HTTPS && s.SetsIDCookie && s.CountryOnly == "" && !s.BlockedIn["ES"] && !s.BlockedIn["US"] &&
			s.Org != nil && s.Org.CertOrg != "" {
			svc = s
			break
		}
	}
	if svc == nil {
		t.Skip("no HTTPS cookie-setting service at this scale")
	}
	site := alive(eco)
	if site == nil {
		t.Skip("no live site at this scale")
	}

	var mu sync.Mutex
	var plain []*wireConn
	dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := srv.DialContext(ctx, network, addr)
		if err != nil || strings.HasSuffix(addr, ":443") {
			return c, err
		}
		w := &wireConn{Conn: c}
		mu.Lock()
		plain = append(plain, w)
		mu.Unlock()
		return w, nil
	}
	tr := NewTransport(dial, srv.CertPool())
	t.Cleanup(tr.CloseIdleConnections)
	newSession := func(country, phase string) *Session {
		s, err := NewSession(Config{Transport: tr, Country: country, Phase: phase, Timeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	es, us := newSession("ES", "crawl"), newSession("US", "policy")

	// fetch runs one request and reports whether it rode a reused
	// connection.
	fetch := func(s *Session, url string) bool {
		t.Helper()
		var reused bool
		ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
			GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused },
		})
		res, err := s.Fetch(ctx, url, site.Host, InitScript, "")
		if err != nil {
			t.Fatalf("%s fetch %s: %v", s.Country(), url, err)
		}
		if res.Status != http.StatusOK {
			t.Fatalf("%s fetch %s: status %d", s.Country(), url, res.Status)
		}
		return reused
	}

	script := "http://" + svc.Host + "/js/tag0.js"
	order := []*Session{es, us, es, us}
	for i, s := range order {
		if reused := fetch(s, script); i > 0 && !reused {
			t.Fatalf("request %d (%s) dialed a new connection; the shared pool should reuse the first", i+1, s.Country())
		}
	}
	if len(plain) != 1 {
		t.Fatalf("%d plain connections dialed, want 1 shared by both sessions", len(plain))
	}
	cookies := es.SiteRecords(site.Host)[0].SetCookies
	if len(cookies) == 0 {
		t.Fatalf("%s set no cookie on first contact", svc.Host)
	}
	name := cookies[0].Name
	reqs := plain[0].requests(t)
	if len(reqs) != len(order) {
		t.Fatalf("server read %d requests off the shared connection, want %d", len(reqs), len(order))
	}
	// A session sends the cookie only once its own earlier response set
	// it: request 2 is the US session's first contact, made while the ES
	// session holds the cookie for the same site on the same connection.
	holds := map[*Session]bool{}
	for i, req := range reqs {
		want := order[i]
		if got := req.Header.Get(webserver.HeaderCountry); got != want.Country() {
			t.Errorf("request %d: %s = %q, want %q", i+1, webserver.HeaderCountry, got, want.Country())
		}
		if got, wantPhase := req.Header.Get(webserver.HeaderPhase), want.cfg.Phase; got != wantPhase {
			t.Errorf("request %d: %s = %q, want %q", i+1, webserver.HeaderPhase, got, wantPhase)
		}
		_, err := req.Cookie(name)
		if sent := err == nil; sent != holds[want] {
			t.Errorf("request %d (%s): cookie %s sent = %v, want %v", i+1, want.Country(), name, sent, holds[want])
		}
		holds[want] = true
	}

	// TLS: the US session's request rides the connection the ES session
	// opened, and the certificate organization is still recorded.
	secure := "https://" + svc.Host + "/js/tag0.js"
	fetch(es, secure)
	if !fetch(us, secure) {
		t.Fatal("second TLS request dialed a new connection; the shared pool should reuse the first")
	}
	if got := us.CertOrgs()[svc.Host]; got != svc.Org.CertOrg {
		t.Errorf("US CertOrgs[%s] = %q over a reused connection, want %q", svc.Host, got, svc.Org.CertOrg)
	}
}
