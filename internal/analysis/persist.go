package analysis

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"freephish/internal/blocklist"
	"freephish/internal/ctlog"
	"freephish/internal/fwb"
	"freephish/internal/threat"
)

// JSONL persistence: a study's records serialize to one JSON object per
// line, the interchange format the paper's dataset release would use
// ("our initial dataset will be available upon request", §8). Reloaded
// studies support every aggregation; the live *fwb.Site handle is not
// persisted (site state is simulation-internal).

// recordDTO is the flat wire form of a Record.
type recordDTO struct {
	URL        string          `json:"url"`
	ServiceKey string          `json:"service,omitempty"`
	Kind       fwb.SiteKind    `json:"kind"`
	Brand      string          `json:"brand,omitempty"`
	SharedAt   time.Time       `json:"shared_at"`
	Platform   threat.Platform `json:"platform"`
	PostID     string          `json:"post_id"`

	HasCredentialFields bool                 `json:"credential_fields"`
	Noindex             bool                 `json:"noindex"`
	BannerObfuscated    bool                 `json:"banner_obfuscated"`
	HiddenIFrame        bool                 `json:"hidden_iframe"`
	DriveByDownload     bool                 `json:"drive_by"`
	TwoStepLink         bool                 `json:"two_step"`
	DomainAgeDays       float64              `json:"domain_age_days"`
	CertType            ctlog.ValidationType `json:"cert_type,omitempty"`
	InCTLog             bool                 `json:"in_ct_log"`
	SearchIndexed       bool                 `json:"search_indexed"`
	TLS                 bool                 `json:"tls"`

	Signature []string `json:"signature,omitempty"`

	// Tier is empty for full-path records, so cascade-off studies
	// serialize byte-identically to every prior version.
	Tier string `json:"tier,omitempty"`

	ClassifierScore float64              `json:"score"`
	ClassifiedAt    time.Time            `json:"classified_at"`
	Blocklist       map[string]time.Time `json:"blocklist,omitempty"` // entity -> listing time
	VTDetections    []time.Time          `json:"vt_detections,omitempty"`
	PlatformRemoved *time.Time           `json:"platform_removed_at,omitempty"`
	HostRemoved     *time.Time           `json:"host_removed_at,omitempty"`
}

func toDTO(r *Record) recordDTO {
	t := r.Target
	d := recordDTO{
		URL: t.URL, Kind: t.Kind, Brand: t.Brand,
		SharedAt: t.SharedAt, Platform: t.Platform, PostID: t.PostID,
		HasCredentialFields: t.HasCredentialFields, Noindex: t.Noindex,
		BannerObfuscated: t.BannerObfuscated, HiddenIFrame: t.HiddenIFrame,
		DriveByDownload: t.DriveByDownload, TwoStepLink: t.TwoStepLink,
		DomainAgeDays: t.DomainAge.Hours() / 24, CertType: t.CertType,
		InCTLog: t.InCTLog, SearchIndexed: t.SearchIndexed, TLS: t.TLS,
		Signature:       r.Signature,
		Tier:            r.Tier,
		ClassifierScore: r.ClassifierScore, ClassifiedAt: r.ClassifiedAt,
		VTDetections: r.VTDetections,
	}
	if t.Service != nil {
		d.ServiceKey = t.Service.Key
	}
	if len(r.Blocklist) > 0 {
		d.Blocklist = make(map[string]time.Time)
		for name, v := range r.Blocklist {
			if v.Detected {
				d.Blocklist[name] = v.At
			}
		}
	}
	if r.PlatformRemoved {
		at := r.PlatformRemovedAt
		d.PlatformRemoved = &at
	}
	if r.HostRemoved {
		at := r.HostRemovedAt
		d.HostRemoved = &at
	}
	return d
}

func fromDTO(d recordDTO) (*Record, error) {
	t := &threat.Target{
		URL: d.URL, Kind: d.Kind, Brand: d.Brand,
		SharedAt: d.SharedAt, Platform: d.Platform, PostID: d.PostID,
		HasCredentialFields: d.HasCredentialFields, Noindex: d.Noindex,
		BannerObfuscated: d.BannerObfuscated, HiddenIFrame: d.HiddenIFrame,
		DriveByDownload: d.DriveByDownload, TwoStepLink: d.TwoStepLink,
		DomainAge: time.Duration(d.DomainAgeDays * 24 * float64(time.Hour)),
		CertType:  d.CertType, InCTLog: d.InCTLog,
		SearchIndexed: d.SearchIndexed, TLS: d.TLS,
	}
	if d.ServiceKey != "" {
		svc, ok := fwb.ByKey(d.ServiceKey)
		if !ok {
			return nil, fmt.Errorf("analysis: unknown FWB service %q", d.ServiceKey)
		}
		t.Service = svc
	}
	r := &Record{
		Target:          t,
		ClassifierScore: d.ClassifierScore,
		Classified:      true,
		ClassifiedAt:    d.ClassifiedAt,
		Tier:            d.Tier,
		Blocklist:       make(map[string]blocklist.Verdict, len(d.Blocklist)),
		VTDetections:    d.VTDetections,
	}
	for name, at := range d.Blocklist {
		r.Blocklist[name] = blocklist.Verdict{Detected: true, At: at}
	}
	if len(d.Signature) > 0 {
		r.Signature = asSignature(d.Signature)
	}
	if d.PlatformRemoved != nil {
		r.PlatformRemoved = true
		r.PlatformRemovedAt = *d.PlatformRemoved
	}
	if d.HostRemoved != nil {
		r.HostRemoved = true
		r.HostRemovedAt = *d.HostRemoved
	}
	return r, nil
}

// WriteJSONL streams the study's records to w, one JSON object per line.
func (s *Study) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range s.Records {
		if err := enc.Encode(toDTO(r)); err != nil {
			return fmt.Errorf("analysis: encode record: %w", err)
		}
	}
	return bw.Flush()
}

// ReadJSONL loads a study from JSONL. Live site handles are not restored.
func ReadJSONL(r io.Reader) (*Study, error) {
	s := &Study{}
	dec := json.NewDecoder(bufio.NewReader(r))
	for {
		var d recordDTO
		if err := dec.Decode(&d); err == io.EOF {
			return s, nil
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decode record %d: %w", len(s.Records), err)
		}
		rec, err := fromDTO(d)
		if err != nil {
			return nil, err
		}
		s.Add(rec)
	}
}
