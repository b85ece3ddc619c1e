package webserver

import (
	"context"
	"crypto/tls"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"pornweb/internal/obs"
	"pornweb/internal/webgen"
)

// TestConcurrentHandshakesMintOnce races 32 handshakes to one host the
// server has never seen: exactly one certificate may be minted, and every
// client must be served that same leaf.
func TestConcurrentHandshakesMintOnce(t *testing.T) {
	eco := webgen.Generate(webgen.Params{Seed: 7, Scale: 0.02})
	reg := obs.NewRegistry()
	srv, err := Start(eco, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	site := pickSite(t, eco, func(s *webgen.Site) bool { return s.HTTPS && !s.Flaky && !s.Unresponsive })

	const clients = 32
	serials := make([]string, clients)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			raw, err := srv.DialContext(ctx, "tcp", site.Host+":443")
			if err != nil {
				t.Errorf("client %d: dial: %v", i, err)
				return
			}
			conn := tls.Client(raw, &tls.Config{ServerName: site.Host, RootCAs: srv.CertPool()})
			defer conn.Close()
			if err := conn.HandshakeContext(ctx); err != nil {
				t.Errorf("client %d: handshake: %v", i, err)
				return
			}
			serials[i] = conn.ConnectionState().PeerCertificates[0].SerialNumber.String()
		}(i)
	}
	close(start)
	wg.Wait()

	if got := reg.Counter("webserver_certs_minted_total").Value(); got != 1 {
		t.Errorf("webserver_certs_minted_total = %d after %d handshakes to one host, want 1", got, clients)
	}
	if got := reg.Counter("webserver_tls_handshakes_total", "result", "served").Value(); got != clients {
		t.Errorf("served handshakes = %d, want %d", got, clients)
	}
	for i, s := range serials {
		if s != serials[0] {
			t.Errorf("client %d saw leaf serial %s, client 0 saw %s", i, s, serials[0])
		}
	}
}

// TestConnectionTelemetry checks the ConnState accounting: each accepted
// connection is counted under its listener, and the open gauge falls back
// to zero once the client closes them.
func TestConnectionTelemetry(t *testing.T) {
	eco := webgen.Generate(webgen.Params{Seed: 7, Scale: 0.02})
	reg := obs.NewRegistry()
	srv, err := Start(eco, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	site := pickSite(t, eco, func(s *webgen.Site) bool { return s.HTTPS && !s.Flaky && !s.Unresponsive })

	c := client(srv)
	for _, url := range []string{"http://" + site.Host + "/", "https://" + site.Host + "/"} {
		resp, err := c.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	for _, l := range []string{"plain", "tls"} {
		if got := reg.Counter("webserver_connections_total", "listener", l).Value(); got != 1 {
			t.Errorf("webserver_connections_total{listener=%q} = %d, want 1", l, got)
		}
	}
	c.Transport.(*http.Transport).CloseIdleConnections()
	open := reg.Gauge("webserver_connections_open")
	deadline := time.Now().Add(5 * time.Second)
	for open.Value() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if v := open.Value(); v != 0 {
		t.Errorf("webserver_connections_open = %v after every client connection closed, want 0", v)
	}
}

// TestNoTLSRefusal checks the refusal of an HTTP-only host, which
// happens on reading the ClientHello: the client sees the internal_error
// alert a failed certificate lookup would send, the refusal is counted
// under no_tls, nothing is minted, and an HTTPS host on the same
// listener is still served.
func TestNoTLSRefusal(t *testing.T) {
	eco := webgen.Generate(webgen.Params{Seed: 7, Scale: 0.02})
	reg := obs.NewRegistry()
	srv, err := Start(eco, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	plain := pickSite(t, eco, func(s *webgen.Site) bool { return !s.HTTPS && !s.Flaky && !s.Unresponsive })
	secure := pickSite(t, eco, func(s *webgen.Site) bool { return s.HTTPS && !s.Flaky && !s.Unresponsive })

	handshake := func(host string) error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		raw, err := srv.DialContext(ctx, "tcp", host+":443")
		if err != nil {
			t.Fatalf("dial %s: %v", host, err)
		}
		conn := tls.Client(raw, &tls.Config{ServerName: host, RootCAs: srv.CertPool()})
		defer conn.Close()
		return conn.HandshakeContext(ctx)
	}
	err = handshake(plain.Host)
	if err == nil || err.Error() != "remote error: tls: internal error" {
		t.Fatalf("handshake with HTTP-only %s: err = %v, want remote error: tls: internal error", plain.Host, err)
	}
	if got := reg.Counter("webserver_tls_handshakes_total", "result", "no_tls").Value(); got != 1 {
		t.Errorf("no_tls handshakes = %d, want 1", got)
	}
	if got := reg.Counter("webserver_certs_minted_total").Value(); got != 0 {
		t.Errorf("webserver_certs_minted_total = %d after a refused handshake, want 0", got)
	}
	if err := handshake(secure.Host); err != nil {
		t.Fatalf("handshake with HTTPS %s: %v", secure.Host, err)
	}
	if got := reg.Counter("webserver_tls_handshakes_total", "result", "served").Value(); got != 1 {
		t.Errorf("served handshakes = %d, want 1", got)
	}
}
