package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"strings"
)

// Format identifies an output renderer for diagnostics.
type Format string

const (
	// FormatText is the human-readable default: one
	// `file:line:col: check: message` line per finding, with the
	// suggested fix indented beneath.
	FormatText Format = "text"
	// FormatJSON emits a single JSON array of diagnostic objects,
	// suppressed findings included (flagged), for tooling and audits.
	FormatJSON Format = "json"
	// FormatGitHub emits ::error / ::warning workflow commands so
	// findings render as inline pull-request annotations.
	FormatGitHub Format = "github"
)

// ParseFormat validates a -format flag value.
func ParseFormat(s string) (Format, error) {
	switch Format(s) {
	case FormatText, FormatJSON, FormatGitHub:
		return Format(s), nil
	}
	return "", fmt.Errorf("lint: unknown format %q (want text, json, or github)", s)
}

// jsonDiagnostic is the stable wire shape of one finding.
type jsonDiagnostic struct {
	Check          string `json:"check"`
	Severity       string `json:"severity"`
	File           string `json:"file"`
	Line           int    `json:"line"`
	Column         int    `json:"column"`
	Message        string `json:"message"`
	Fix            string `json:"fix,omitempty"`
	Suppressed     bool   `json:"suppressed,omitempty"`
	SuppressReason string `json:"suppressReason,omitempty"`
}

// WriteDiagnostics renders diags to w in the given format. baseDir,
// when non-empty, is stripped from file paths so output is
// module-relative (and therefore stable across checkouts). Text and
// GitHub formats omit suppressed findings; JSON keeps them so the
// suppression audit trail is machine-readable.
func WriteDiagnostics(w io.Writer, diags []Diagnostic, format Format, baseDir string) error {
	relPath := func(name string) string {
		if baseDir == "" {
			return name
		}
		if rel, err := filepath.Rel(baseDir, name); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
		return name
	}

	switch format {
	case FormatJSON:
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiagnostic{
				Check:          d.Check,
				Severity:       d.Severity.String(),
				File:           relPath(d.Pos.Filename),
				Line:           d.Pos.Line,
				Column:         d.Pos.Column,
				Message:        d.Message,
				Fix:            d.Fix,
				Suppressed:     d.Suppressed,
				SuppressReason: d.SuppressReason,
			})
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(out)

	case FormatGitHub:
		for _, d := range diags {
			if d.Suppressed {
				continue
			}
			// GitHub workflow commands strip newlines; %0A is the
			// documented escape.
			msg := fmt.Sprintf("[%s] %s", d.Check, d.Message)
			if d.Fix != "" {
				msg += "%0Asuggested: " + d.Fix
			}
			if _, err := fmt.Fprintf(w, "::%s file=%s,line=%d,col=%d,title=vqlint %s::%s\n",
				d.Severity, relPath(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Check, msg); err != nil {
				return err
			}
		}
		return nil

	default: // FormatText
		for _, d := range diags {
			if d.Suppressed {
				continue
			}
			if _, err := fmt.Fprintf(w, "%s:%d:%d: %s: %s\n",
				relPath(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Check, d.Message); err != nil {
				return err
			}
			if d.Fix != "" {
				if _, err := fmt.Fprintf(w, "\tsuggested: %s\n", d.Fix); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// Unsuppressed counts findings that are not covered by a directive —
// the number that should gate an exit code or a CI job.
func Unsuppressed(diags []Diagnostic) int {
	n := 0
	for _, d := range diags {
		if !d.Suppressed {
			n++
		}
	}
	return n
}
