package experiments

import (
	"fmt"

	"ctrise/internal/phish"
	"ctrise/internal/report"
)

// Table3Result backs the phishing analysis.
type Table3Result struct {
	Report *phish.Report
	// Generated is the injected ground truth per service.
	Generated map[string]int
	// CorpusSize is the scanned corpus size.
	CorpusSize int
}

// Table3 injects phishing-style domains into the harvested CT corpus
// (phishing sites need certificates too) and runs the detector over the
// combined name set. The detector scans the harvest's sharded name set in
// place; only the injected names the harvest lacks are held separately.
func (s *Suite) Table3() (*Table3Result, error) {
	_, h, err := s.World()
	if err != nil {
		return nil, err
	}
	injected := make(map[string]struct{})
	truth := phish.Generate(phish.GenConfig{Seed: s.opts.Seed + 55, Scale: 0.01 * s.opts.Scale}, injected)
	var extra []string
	for name := range injected {
		if !h.NameSet.Has(name) {
			extra = append(extra, name)
		}
	}
	det := &phish.Detector{
		Targets: append(phish.DefaultTargets(), phish.GovTarget()),
		PSL:     phish.NewDetector().PSL,
	}
	return &Table3Result{
		Report:     det.Scan(h.NameSet, extra, s.opts.Parallelism),
		Generated:  truth,
		CorpusSize: h.NameSet.Len() + len(extra),
	}, nil
}

// RenderTable3 renders the per-service counts with examples.
func (r *Table3Result) RenderTable3() string {
	tbl := &report.Table{
		Title:   "Table 3: potential phishing domains identified in CT",
		Headers: []string{"Service", "Count", "Example"},
	}
	for _, kv := range r.Report.PerService.TopK(r.Report.PerService.Len()) {
		tbl.AddRow(kv.Key, fmt.Sprint(kv.Count), r.Report.Examples[kv.Key])
	}
	tbl.AddRow("eBay on bid/review", fmt.Sprintf("%.0f%%", r.Report.SuffixShare("eBay", "bid", "review")), "")
	tbl.AddRow("Microsoft on live", fmt.Sprintf("%.0f%%", r.Report.SuffixShare("Microsoft", "live")), "")
	return tbl.Render()
}
