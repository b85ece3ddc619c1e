package core

import (
	"context"
	"crypto/tls"
	"sync"
)

// TLSProbe is what one TLS handshake with a host reports: whether it
// completed, and the organization named on the presented leaf
// certificate ("" when the handshake failed or the leaf names none).
type TLSProbe struct {
	OK  bool
	Org string
}

// ProbeTLS actively probes each host over TLS through the study's
// resolver and returns the outcomes aligned with hosts. It backs two
// analyses: the "fully HTTPS" classification of Section 5.2 (a third
// party *supports* HTTPS even when a plain-HTTP page embedded it over
// plain HTTP) and the X.509 organization lookup behind attribution (the
// paper "leverages DNS, WHOIS and X.509 certificate information" — an
// active lookup, not just what the crawl happened to fetch over HTTPS,
// which would miss every tracker embedded from plain-HTTP pages).
//
// Each host is handshaken at most once per Run: outcomes are kept in the
// study's probe table, which Run resets, so both analyses share one
// handshake per host. The server's TLS behaviour is a function of the
// host alone (no fault is injected below the HTTP layer), so a shared
// outcome is the outcome either analysis would have seen. Certificates
// are verified on every handshake made; a cancelled ctx stops the
// probing, and a probe that failed because ctx ended is not kept.
func (st *Study) ProbeTLS(ctx context.Context, hosts []string) []TLSProbe {
	out := make([]TLSProbe, len(hosts))
	st.forEach(ctx, len(hosts), func(i int) {
		out[i] = st.probeHost(ctx, hosts[i])
	})
	return out
}

// probeHost returns host's settled outcome, or handshakes under ctx to
// settle it. A failure while ctx is done is returned but not kept.
func (st *Study) probeHost(ctx context.Context, host string) TLSProbe {
	s := st.probes.slot(host)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.settled && ctx.Err() == nil {
		res := st.handshake(ctx, host)
		if res.OK || ctx.Err() == nil {
			s.res, s.settled = res, true
		}
		return res
	}
	return s.res
}

// handshake dials host:443 and completes a verified TLS handshake.
func (st *Study) handshake(ctx context.Context, host string) TLSProbe {
	raw, err := st.Srv.DialContext(ctx, "tcp", host+":443")
	if err != nil {
		return TLSProbe{}
	}
	conn := tls.Client(raw, &tls.Config{ServerName: host, RootCAs: st.Srv.CertPool()})
	defer conn.Close()
	if err := conn.HandshakeContext(ctx); err != nil {
		return TLSProbe{}
	}
	res := TLSProbe{OK: true}
	if certs := conn.ConnectionState().PeerCertificates; len(certs) > 0 {
		if orgs := certs[0].Subject.Organization; len(orgs) > 0 {
			res.Org = orgs[0]
		}
	}
	return res
}

// probeTable holds one probe slot per host for the current Run. The zero
// value is empty and ready to use.
type probeTable struct {
	mu sync.Mutex
	// guarded by mu
	slots map[string]*probeSlot
}

// reset forgets every probe outcome.
func (t *probeTable) reset() {
	t.mu.Lock()
	t.slots = nil
	t.mu.Unlock()
}

// slot returns host's slot, creating it on first use.
func (t *probeTable) slot(host string) *probeSlot {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.slots[host]
	if !ok {
		if t.slots == nil {
			t.slots = map[string]*probeSlot{}
		}
		s = &probeSlot{}
		t.slots[host] = s
	}
	return s
}

// probeSlot settles one host's outcome. Its mutex, not the table's,
// serializes the handshake, so probes of the same host racing from two
// analyses make one handshake and share it, while other hosts proceed.
// It is not a sync.Once because an outcome cut short by the caller's
// context must leave the slot unsettled for the next caller.
type probeSlot struct {
	mu sync.Mutex
	// guarded by mu
	settled bool
	// guarded by mu
	res TLSProbe
}
