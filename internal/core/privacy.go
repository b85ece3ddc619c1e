package core

import (
	"context"
	"sort"
	"strings"

	"pornweb/internal/cookies"
	"pornweb/internal/domain"
	"pornweb/internal/fingerprint"
	"pornweb/internal/malware"
	"pornweb/internal/ranking"
)

// loopbackClientIP is the address the substrate server sees (the analog of
// the paper's "IP address of our physical machine").
const loopbackClientIP = "127.0.0.1"

// CookieCensus is the Section 5.1.1 census plus the encoded-data findings.
type CookieCensus struct {
	Total                int
	SitesWithCookies     int // sites installing >= 1 cookie
	SitesWithCookiesFrac float64
	IDCookies            int // potential-identifier cookies
	Over1000Chars        int
	ThirdPartyID         int
	ThirdPartyDomains    int
	SitesWithTPID        int
	SitesWithTPIDFrac    float64

	CookiesWithClientIP int
	SitesWithIPCookies  int
	GeoCookies          int
	SitesWithGeoCookies int
	// Top popular name=value pairs and the share of sites carrying the
	// 100 most popular ones.
	Top100SiteShare float64
}

// CookieDomainRow is one row of Table 4: a third-party domain delivering
// potential-ID cookies.
type CookieDomainRow struct {
	Domain       string // FQDN
	SiteShare    float64
	CookieCount  int
	ATS          bool
	InRegularWeb bool
	IPShare      float64 // fraction of its cookies embedding the client IP
}

// AnalyzeCookies builds the census and Table 4 from the porn crawl.
// regularTP is the set of third-party FQDNs observed in the regular crawl
// (for the "in web ecosystem" column).
func (st *Study) AnalyzeCookies(porn *CrawlResult, regularTP map[string]bool) (CookieCensus, []CookieDomainRow) {
	cls := porn.classifier()
	obs := cookies.Collect(porn.Log, cls)
	census := cookies.BuildCensus(obs)

	out := CookieCensus{
		Total:             census.Total,
		SitesWithCookies:  len(census.SitesWithCookies),
		IDCookies:         census.IDCookies,
		Over1000Chars:     census.Over1000Chars,
		ThirdPartyID:      census.ThirdPartyID,
		ThirdPartyDomains: len(census.ThirdPartyDomains),
		SitesWithTPID:     len(census.SitesWithTPID),
	}
	if n := len(porn.Crawled); n > 0 {
		out.SitesWithCookiesFrac = float64(out.SitesWithCookies) / float64(n)
		out.SitesWithTPIDFrac = float64(out.SitesWithTPID) / float64(n)
	}

	// Encoded data and per-domain aggregation.
	type agg struct {
		cookies int
		withIP  int
		sites   map[string]bool
	}
	perDomain := map[string]*agg{}
	ipSites := map[string]bool{}
	geoSites := map[string]bool{}
	for _, o := range obs {
		if !o.IsIDCandidate() || !o.ThirdParty {
			continue
		}
		a := perDomain[o.Host]
		if a == nil {
			a = &agg{sites: map[string]bool{}}
			perDomain[o.Host] = a
		}
		a.cookies++
		a.sites[o.SiteHost] = true
		d := cookies.DecodeValue(o.Value, loopbackClientIP)
		if d.HasClientIP {
			a.withIP++
			out.CookiesWithClientIP++
			ipSites[o.SiteHost] = true
		}
		if d.HasGeo {
			out.GeoCookies++
			geoSites[o.SiteHost] = true
		}
	}
	out.SitesWithIPCookies = len(ipSites)
	out.SitesWithGeoCookies = len(geoSites)

	// Top-100 popular name=value pairs coverage.
	topSites := map[string]bool{}
	for _, p := range census.TopPairs(100) {
		for s := range census.PopularPairs[p.Pair] {
			topSites[s] = true
		}
	}
	if n := len(porn.Crawled); n > 0 {
		out.Top100SiteShare = float64(len(topSites)) / float64(n)
	}

	rows := make([]CookieDomainRow, 0, len(perDomain))
	nSites := float64(len(porn.Crawled))
	for host, a := range perDomain {
		row := CookieDomainRow{
			Domain:       host,
			CookieCount:  a.cookies,
			ATS:          st.isATS(host),
			InRegularWeb: regularTP[host],
		}
		if nSites > 0 {
			row.SiteShare = float64(len(a.sites)) / nSites
		}
		if a.cookies > 0 {
			row.IPShare = float64(a.withIP) / float64(a.cookies)
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SiteShare != rows[j].SiteShare {
			return rows[i].SiteShare > rows[j].SiteShare
		}
		return rows[i].Domain < rows[j].Domain
	})
	return out, rows
}

// SyncResult is the Figure 4 cookie-synchronization analysis.
type SyncResult struct {
	Events       int
	Sites        int // porn sites on which a sync was observed
	SiteShare    float64
	Pairs        int // distinct (origin, destination) base-domain pairs
	Origins      int
	Destinations int
	TopEdges     []cookies.Edge
	// Top100Share is the fraction of the 100 most popular porn sites
	// where syncing was observed (58% in the paper).
	Top100Share float64
}

// AnalyzeCookieSync builds Figure 4 from the porn crawl.
func (st *Study) AnalyzeCookieSync(porn *CrawlResult, edgeThreshold int) SyncResult {
	events := cookies.DetectSyncs(porn.Log)
	g := cookies.BuildGraph(events)
	res := SyncResult{
		Events:       len(events),
		Sites:        len(g.Sites),
		Pairs:        len(g.Pairs),
		Origins:      len(g.Origins),
		Destinations: len(g.Dests),
		TopEdges:     g.EdgesWithAtLeast(edgeThreshold),
	}
	if n := len(porn.Crawled); n > 0 {
		res.SiteShare = float64(res.Sites) / float64(n)
	}
	// Top-100 coverage.
	type hostRank struct {
		host string
		best int
	}
	ranked := make([]hostRank, 0, len(porn.Crawled))
	for _, h := range porn.Crawled {
		b := st.Rank.StatsFor(h).Best
		if b == 0 {
			b = 1 << 30
		}
		ranked = append(ranked, hostRank{h, b})
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].best < ranked[j].best })
	topN := 100
	if topN > len(ranked) {
		topN = len(ranked)
	}
	var covered int
	for _, hr := range ranked[:topN] {
		if g.Sites[hr.host] {
			covered++
		}
	}
	if topN > 0 {
		res.Top100Share = float64(covered) / float64(topN)
	}
	return res
}

// FPServerRow is one row of Table 5: a third-party host delivering
// fingerprinting scripts.
type FPServerRow struct {
	Domain        string
	Presence      int // porn sites loading anything from it
	ATS           bool
	InRegularWeb  bool
	CanvasScripts int
	WebRTCScripts int
}

// FingerprintResult is the Section 5.1.3 analysis.
type FingerprintResult struct {
	CanvasScripts   int // distinct scripts classified as canvas FP
	CanvasSites     int
	CanvasSiteShare float64
	CanvasServers   int     // third-party hosts delivering them
	ThirdPartyShare float64 // fraction of canvas scripts that are third-party
	FontScripts     int
	FontSites       int
	WebRTCScripts   int
	WebRTCSites     int
	WebRTCServers   int
	// UnlistedCanvasShare is the fraction of canvas-FP scripts not matched
	// by EasyList/EasyPrivacy (91% in the paper).
	UnlistedCanvasShare float64
	Servers             []FPServerRow
}

// canonicalScriptURL strips the query string: a script's identity is its
// program (scheme://host/path), not the per-embed parameters — the paper's
// "245 different JavaScripts" counts programs.
func canonicalScriptURL(u string) string {
	if i := strings.IndexByte(u, '?'); i >= 0 {
		return u[:i]
	}
	return u
}

// AnalyzeFingerprinting classifies every script trace of the porn crawl.
func (st *Study) AnalyzeFingerprinting(porn *CrawlResult, regularTP map[string]bool) FingerprintResult {
	sum := fingerprint.NewSummary()
	for _, pv := range porn.Visits {
		for _, tr := range pv.Traces {
			sum.Add(fingerprint.ScriptReport{
				ScriptURL: canonicalScriptURL(tr.URL),
				Host:      tr.Host,
				SiteHost:  tr.SiteHost,
				Verdict:   fingerprint.ClassifyTrace(tr.Trace),
			})
		}
	}
	res := FingerprintResult{
		CanvasScripts: len(sum.CanvasScripts),
		CanvasSites:   len(sum.CanvasSites),
		CanvasServers: len(sum.CanvasByServer),
		FontScripts:   len(sum.FontScripts),
		FontSites:     len(sum.FontSites),
		WebRTCScripts: len(sum.WebRTCScripts),
		WebRTCSites:   len(sum.WebRTCSites),
		WebRTCServers: len(sum.WebRTCByServer),
	}
	if n := len(porn.Crawled); n > 0 {
		res.CanvasSiteShare = float64(res.CanvasSites) / float64(n)
	}
	var thirdParty, unlisted int
	for url := range sum.CanvasScripts {
		if !strings.HasPrefix(url, "inline:") {
			thirdParty++
			if !st.EasyList.MatchURL(url, "") {
				unlisted++
			}
		} else {
			unlisted++ // inline first-party scripts are never list-indexed
		}
	}
	if res.CanvasScripts > 0 {
		res.ThirdPartyShare = float64(thirdParty) / float64(res.CanvasScripts)
		res.UnlistedCanvasShare = float64(unlisted) / float64(res.CanvasScripts)
	}

	// Per-server rows: presence = sites contacting the host at all.
	presence := map[string]map[string]bool{}
	for _, r := range porn.Log {
		if r.SiteHost == "" || r.Host == "" || r.Status == 0 {
			continue
		}
		if presence[r.Host] == nil {
			presence[r.Host] = map[string]bool{}
		}
		presence[r.Host][r.SiteHost] = true
	}
	servers := map[string]*FPServerRow{}
	rowFor := func(host string) *FPServerRow {
		if r, ok := servers[host]; ok {
			return r
		}
		r := &FPServerRow{
			Domain:       host,
			Presence:     len(presence[host]),
			ATS:          st.isATS(host),
			InRegularWeb: regularTP[host],
		}
		servers[host] = r
		return r
	}
	for host, scripts := range sum.CanvasByServer {
		rowFor(host).CanvasScripts = len(scripts)
	}
	for host, scripts := range sum.WebRTCByServer {
		rowFor(host).WebRTCScripts = len(scripts)
	}
	for _, r := range servers {
		res.Servers = append(res.Servers, *r)
	}
	sort.Slice(res.Servers, func(i, j int) bool {
		if res.Servers[i].Presence != res.Servers[j].Presence {
			return res.Servers[i].Presence > res.Servers[j].Presence
		}
		return res.Servers[i].Domain < res.Servers[j].Domain
	})
	return res
}

// HTTPSRow is one interval row of Table 6.
type HTTPSRow struct {
	Interval        ranking.Interval
	Sites           int
	SitesHTTPS      float64
	ThirdParties    int
	ThirdPartyHTTPS float64
}

// HTTPSResult is Section 5.2.
type HTTPSResult struct {
	Rows []HTTPSRow
	// NotFullyHTTPS counts sites where the page or any third party loaded
	// over plain HTTP.
	NotFullyHTTPS      int
	NotFullyHTTPSShare float64
	// ClearCookieSites counts not-fully-HTTPS sites where an ID cookie
	// travelled in the clear.
	ClearCookieSites int
}

// AnalyzeHTTPS builds Table 6 from the porn crawl. The per-interval
// third-party percentages reflect the scheme actually used (mixed-content
// reality); the fully-HTTPS classification of a site additionally probes
// whether its plain-HTTP third parties could have served TLS, as the paper
// words it ("do not support HTTPS").
func (st *Study) AnalyzeHTTPS(ctx context.Context, porn *CrawlResult) HTTPSResult {
	var res HTTPSResult
	perSite := porn.thirdPartyHostsBySite()
	tpHosts := porn.allThirdPartyHosts()
	tlsCapable := make(map[string]bool, len(tpHosts))
	for i, p := range st.ProbeTLS(ctx, tpHosts) {
		tlsCapable[tpHosts[i]] = p.OK
	}

	// Third-party FQDN -> ever served over https in this crawl.
	tpHTTPS := map[string]bool{}
	tpSeen := map[string]bool{}
	idCookieHosts := map[string]bool{}
	for _, r := range porn.Log {
		if r.Host == "" || r.Status == 0 {
			continue
		}
		tpSeen[r.Host] = true
		if r.Scheme == "https" {
			tpHTTPS[r.Host] = true
		}
		for _, c := range r.SetCookies {
			if !c.Session && len(c.Value) >= cookies.MinIDLength {
				idCookieHosts[c.Host] = true
			}
		}
	}

	// Single pass: which sites carried identifier cookies over plain HTTP
	// (re-scanning the log per site is quadratic at paper scale).
	clearCandidate := map[string]bool{}
	for _, r := range porn.Log {
		if r.Status != 0 && r.Scheme == "http" && idCookieHosts[r.Host] {
			clearCandidate[r.SiteHost] = true
		}
	}

	type ivAgg struct {
		sites, https int
		tp           map[string]bool
	}
	aggs := map[ranking.Interval]*ivAgg{}
	for iv := ranking.IntervalTop1K; iv < ranking.NumIntervals; iv++ {
		aggs[iv] = &ivAgg{tp: map[string]bool{}}
	}
	clearSites := map[string]bool{}
	for _, site := range porn.Crawled {
		iv := st.interval(site)
		a := aggs[iv]
		a.sites++
		pv := porn.Visits[site]
		if pv != nil && pv.HTTPS {
			a.https++
		}
		for _, h := range perSite[site] {
			a.tp[h] = true
		}
		// Fully-HTTPS determination: the site answers TLS and every third
		// party supports it.
		fully := pv != nil && pv.HTTPS
		if fully {
			for _, h := range perSite[site] {
				if !tpHTTPS[h] && !tlsCapable[h] {
					fully = false
					break
				}
			}
		}
		if !fully {
			res.NotFullyHTTPS++
			if clearCandidate[site] {
				clearSites[site] = true
			}
		}
	}
	res.ClearCookieSites = len(clearSites)
	if n := len(porn.Crawled); n > 0 {
		res.NotFullyHTTPSShare = float64(res.NotFullyHTTPS) / float64(n)
	}
	for iv := ranking.IntervalTop1K; iv < ranking.NumIntervals; iv++ {
		a := aggs[iv]
		row := HTTPSRow{Interval: iv, Sites: a.sites, ThirdParties: len(a.tp)}
		if a.sites > 0 {
			row.SitesHTTPS = float64(a.https) / float64(a.sites)
		}
		var https int
		for h := range a.tp {
			if tpHTTPS[h] {
				https++
			}
		}
		if len(a.tp) > 0 {
			row.ThirdPartyHTTPS = float64(https) / float64(len(a.tp))
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// StorageResult covers the "persistent tracking mechanisms" angle the
// paper cites (Acar et al.'s evercookies): scripts that mirror their
// identifier into localStorage in addition to the HTTP cookie can respawn
// it after cookie deletion.
type StorageResult struct {
	// ScriptsUsingStorage counts distinct scripts writing localStorage.
	ScriptsUsingStorage int
	// RespawnCandidates counts scripts that both set a cookie and mirror
	// an identifier into storage.
	RespawnCandidates int
	// Sites loading at least one respawn-candidate script.
	Sites int
}

// AnalyzeStorage scans the crawl's JS traces for localStorage-based
// persistence.
func (st *Study) AnalyzeStorage(porn *CrawlResult) StorageResult {
	var res StorageResult
	scripts := map[string]bool{}
	respawn := map[string]bool{}
	sites := map[string]bool{}
	for _, pv := range porn.Visits {
		for _, tr := range pv.Traces {
			if len(tr.Trace.StorageWrites) == 0 {
				continue
			}
			key := canonicalScriptURL(tr.URL)
			if key == "" {
				key = "inline:" + tr.SiteHost
			}
			scripts[key] = true
			if len(tr.Trace.CookieWrites) > 0 {
				respawn[key] = true
				sites[tr.SiteHost] = true
			}
		}
	}
	res.ScriptsUsingStorage = len(scripts)
	res.RespawnCandidates = len(respawn)
	res.Sites = len(sites)
	return res
}

// MalwareResult is Sections 5.3 / 6.2.
type MalwareResult struct {
	FlaggedSites        []string // porn sites flagged by >= 4 scanners
	FlaggedThirdParties []string // third-party base domains flagged
	SitesWithMalicious  int      // porn sites embedding flagged third parties
	MinerDomains        []string // cryptomining services observed
	SitesWithMiners     int
}

// malwareOracle builds the scanner fleet seeded with the ecosystem's
// planted threats (the stand-in for real scanner databases).
func (st *Study) malwareOracle() *malware.Aggregator {
	var bad []string
	for _, svc := range st.Eco.Services {
		if svc.Malicious {
			bad = append(bad, svc.Base)
		}
	}
	for _, s := range st.Eco.PornSites {
		if s.Malicious {
			bad = append(bad, s.Host)
		}
	}
	return malware.New(st.Cfg.Params.Seed^0xbad, bad)
}

// AnalyzeMalware runs the VirusTotal-analog over the crawl's observations.
func (st *Study) AnalyzeMalware(porn *CrawlResult) MalwareResult {
	agg := st.malwareOracle()
	var res MalwareResult
	res.FlaggedSites = agg.FlagAll(porn.Crawled)

	perSite := porn.thirdPartyHostsBySite()
	flaggedTP := map[string]bool{}
	minerSet := map[string]bool{}
	sitesWithBad := map[string]bool{}
	sitesWithMiner := map[string]bool{}
	for site, hosts := range perSite {
		for _, h := range hosts {
			base := domain.Base(h)
			if agg.Flagged(base) {
				flaggedTP[base] = true
				sitesWithBad[site] = true
			}
			if malware.IsCryptoMiner(h) {
				minerSet[base] = true
				sitesWithMiner[site] = true
			}
		}
	}
	for d := range flaggedTP {
		res.FlaggedThirdParties = append(res.FlaggedThirdParties, d)
	}
	sort.Strings(res.FlaggedThirdParties)
	for d := range minerSet {
		res.MinerDomains = append(res.MinerDomains, d)
	}
	sort.Strings(res.MinerDomains)
	res.SitesWithMalicious = len(sitesWithBad)
	res.SitesWithMiners = len(sitesWithMiner)
	return res
}
