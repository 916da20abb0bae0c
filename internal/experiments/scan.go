package experiments

import (
	"fmt"
	"sort"

	"ctrise/internal/ecosystem"
	"ctrise/internal/policy"
	"ctrise/internal/report"
	"ctrise/internal/scanner"
	"ctrise/internal/sct"
	"ctrise/internal/stats"
)

// ScanResult backs Sections 3.3 and 3.4, plus the Chrome CT policy
// compliance rate of the population (the enforcement Section 2 dates to
// April 2018).
type ScanResult struct {
	Stats    *scanner.ScanStats
	Invalid  []scanner.InvalidCert
	ByCA     map[string]int
	NumSites int
	// PolicyChecked / PolicyCompliant count embedded-SCT certificates
	// evaluated against Chrome's CT policy and those passing it.
	PolicyChecked   int
	PolicyCompliant int
}

// Scan builds the HTTPS population on a fresh world snapshot (the scan
// date, 2018-05-18), sweeps it, and runs the invalid-SCT detector.
func (s *Suite) Scan() (*ScanResult, error) {
	w, _, err := s.World()
	if err != nil {
		return nil, err
	}
	w.Clock.Set(ecosystem.Date(2018, 5, 18))
	numSites := s.opts.NumDomains / 5
	sites, err := scanner.BuildPopulation(w, scanner.PopConfig{
		Seed:        s.opts.Seed + 33,
		NumSites:    numSites,
		Parallelism: s.opts.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	names := make(map[sct.LogID]string, len(w.Logs))
	for name, l := range w.Logs {
		names[l.LogID()] = name
	}
	st, err := scanner.Scan(sites, names, s.opts.Parallelism)
	if err != nil {
		return nil, err
	}
	invalid, err := scanner.DetectInvalidSCTs(sites, w.Verifiers(), s.opts.Parallelism)
	if err != nil {
		return nil, err
	}
	res := &ScanResult{
		Stats:    st,
		Invalid:  invalid,
		ByCA:     scanner.CountByCA(invalid),
		NumSites: len(sites),
	}

	// Chrome CT policy compliance across the population, swept in site
	// chunks with additive per-chunk tallies (signature verification per
	// SCT makes this the most CPU-bound stage of the scan).
	logSet := policy.LogSet{}
	for _, l := range w.Logs {
		logSet[l.LogID()] = policy.LogInfo{
			Name:           l.Name(),
			Operator:       l.Operator(),
			GoogleOperated: l.Operator() == "Google",
			Verifier:       l.Verifier(),
		}
	}
	const policyChunk = 512
	chunks := ecosystem.Ranges(len(sites), policyChunk)
	checked := make([]int, len(chunks))
	compliant := make([]int, len(chunks))
	var policyErr ecosystem.FirstError
	ecosystem.ForEach(len(chunks), s.opts.Parallelism, func(ci int) {
		for _, site := range sites[chunks[ci].Lo:chunks[ci].Hi] {
			if !site.Cert.HasSCTList() {
				continue
			}
			pr, err := policy.CheckEmbedded(site.Cert, site.IssuerKeyHash, logSet)
			if err != nil {
				policyErr.Record(ci, err)
				return
			}
			checked[ci]++
			if pr.Compliant {
				compliant[ci]++
			}
		}
	})
	if err := policyErr.Err(); err != nil {
		return nil, err
	}
	for ci := range chunks {
		res.PolicyChecked += checked[ci]
		res.PolicyCompliant += compliant[ci]
	}
	return res, nil
}

// RenderSection33 renders the active-scan statistics.
func (r *ScanResult) RenderSection33() string {
	st := r.Stats
	tbl := &report.Table{
		Title:   "Section 3.3: active scan of the HTTPS population",
		Headers: []string{"Metric", "Value"},
	}
	tbl.AddRow("unique certificates", fmt.Sprint(st.TotalCerts))
	tbl.AddRow("with embedded SCT", fmt.Sprintf("%d (%.1f%%)", st.WithEmbeddedSCT, stats.Percent(st.WithEmbeddedSCT, st.TotalCerts)))
	tbl.AddRow("SCT via TLS extension", fmt.Sprint(st.TLSExtCerts))
	tbl.AddRow("SCT via stapled OCSP", fmt.Sprint(st.OCSPCerts))
	tbl.AddRow("IPs scanned", fmt.Sprint(st.TotalIPs))
	tbl.AddRow("IPs serving an SCT", fmt.Sprint(st.IPsServingSCT))
	tbl.AddRow("certs per IP (SNI multiplexing)", fmt.Sprintf("%.1f", float64(st.TotalCerts)/float64(st.TotalIPs)))
	tbl.AddRow("Chrome-CT-policy compliant", fmt.Sprintf("%d of %d embedded-SCT certs (%.1f%%)",
		r.PolicyCompliant, r.PolicyChecked, stats.Percent(uint64(r.PolicyCompliant), uint64(r.PolicyChecked))))

	logTbl := &report.Table{
		Title:   "Section 3.3: share of embedded-SCT certificates per log",
		Headers: []string{"Log", "% of certs"},
	}
	for _, kv := range st.CertsByLog.TopK(8) {
		logTbl.AddRow(kv.Key, fmt.Sprintf("%.1f%%", st.LogPercent(kv.Key)))
	}
	return tbl.Render() + "\n" + logTbl.Render()
}

// RenderSection34 renders the misissuance findings.
func (r *ScanResult) RenderSection34() string {
	tbl := &report.Table{
		Title:   "Section 3.4: certificates with invalid embedded SCTs",
		Headers: []string{"CA", "Certificates"},
	}
	cas := make([]string, 0, len(r.ByCA))
	for c := range r.ByCA {
		cas = append(cas, c)
	}
	sort.Slice(cas, func(i, j int) bool {
		if r.ByCA[cas[i]] != r.ByCA[cas[j]] {
			return r.ByCA[cas[i]] > r.ByCA[cas[j]]
		}
		return cas[i] < cas[j]
	})
	for _, c := range cas {
		tbl.AddRow(c, fmt.Sprint(r.ByCA[c]))
	}
	tbl.AddRow("total", fmt.Sprint(len(r.Invalid)))
	return tbl.Render()
}
