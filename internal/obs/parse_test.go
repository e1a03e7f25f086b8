package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file is a small, strict parser for the Prometheus text
// exposition format — the validation half of the contract: everything
// WriteExposition emits must round-trip through ParseExposition, which
// only tests read, so it ships with them. It checks structure (name and label syntax, quoting, escapes), family
// discipline (TYPE before samples, no interleaving), and histogram
// invariants (cumulative non-decreasing buckets, a +Inf bucket equal to
// _count).

// ParsedSample is one parsed sample line.
type ParsedSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParsedFamily is one family as read back from an exposition.
type ParsedFamily struct {
	Name    string
	Kind    string
	Samples []ParsedSample
}

// Label returns s's value for a label name ("" when absent).
func (s ParsedSample) Label(name string) string { return s.Labels[name] }

// ParseExposition reads a text exposition, returning its families keyed
// by name. Any structural violation is an error carrying the offending
// line number.
func ParseExposition(r io.Reader) (map[string]*ParsedFamily, error) {
	fams := make(map[string]*ParsedFamily)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	ln := 0
	for sc.Scan() {
		ln++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseComment(line, fams); err != nil {
				return nil, fmt.Errorf("line %d: %w", ln, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln, err)
		}
		fam := fams[familyOf(s.Name, fams)]
		if fam == nil {
			return nil, fmt.Errorf("line %d: sample %s precedes its TYPE line", ln, s.Name)
		}
		fam.Samples = append(fam.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, fam := range fams {
		if fam.Kind == KindHistogram {
			if err := checkHistogram(fam); err != nil {
				return nil, fmt.Errorf("family %s: %w", fam.Name, err)
			}
		}
	}
	return fams, nil
}

// familyOf maps a sample name to its family name, folding histogram
// suffixes onto the base family when one is declared.
func familyOf(name string, fams map[string]*ParsedFamily) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name {
			if f, ok := fams[base]; ok && f.Kind == KindHistogram {
				return base
			}
		}
	}
	return name
}

func parseComment(line string, fams map[string]*ParsedFamily) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
		return nil // free-form comment: legal, ignored
	}
	name := fields[2]
	if !validName(name) {
		return fmt.Errorf("invalid metric name %q in %s line", name, fields[1])
	}
	if fields[1] == "TYPE" {
		if len(fields) != 4 {
			return fmt.Errorf("TYPE line for %s has no type", name)
		}
		kind := fields[3]
		switch kind {
		case KindCounter, KindGauge, KindHistogram, "summary", "untyped":
		default:
			return fmt.Errorf("unknown TYPE %q for %s", kind, name)
		}
		if f, dup := fams[name]; dup && len(f.Samples) > 0 {
			return fmt.Errorf("TYPE for %s repeated after samples", name)
		}
		fams[name] = &ParsedFamily{Name: name, Kind: kind}
	}
	return nil
}

func parseSample(line string) (ParsedSample, error) {
	s := ParsedSample{Labels: map[string]string{}}
	rest := line

	i := 0
	for i < len(rest) && rest[i] != '{' && rest[i] != ' ' {
		i++
	}
	s.Name = rest[:i]
	if !validName(s.Name) {
		return s, fmt.Errorf("invalid sample name %q", s.Name)
	}
	rest = rest[i:]

	if strings.HasPrefix(rest, "{") {
		end, err := parseLabels(rest, s.Labels)
		if err != nil {
			return s, err
		}
		rest = rest[end:]
	}
	rest = strings.TrimLeft(rest, " ")
	// A timestamp may follow the value; we accept and ignore it.
	valStr := rest
	if sp := strings.IndexByte(rest, ' '); sp >= 0 {
		valStr = rest[:sp]
	}
	v, err := parseValue(valStr)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %w", valStr, err)
	}
	s.Value = v
	return s, nil
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// parseLabels parses a {name="value",...} block starting at s[0]=='{',
// returning the index just past the closing brace.
func parseLabels(s string, out map[string]string) (int, error) {
	i := 1
	for {
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label block")
		}
		if s[i] == '}' {
			return i + 1, nil
		}
		j := i
		for j < len(s) && s[j] != '=' {
			j++
		}
		name := s[i:j]
		if !validName(name) {
			return 0, fmt.Errorf("invalid label name %q", name)
		}
		if j+1 >= len(s) || s[j+1] != '"' {
			return 0, fmt.Errorf("label %s: value not quoted", name)
		}
		val, end, err := parseQuoted(s, j+1)
		if err != nil {
			return 0, fmt.Errorf("label %s: %w", name, err)
		}
		if _, dup := out[name]; dup {
			return 0, fmt.Errorf("label %s repeated", name)
		}
		out[name] = val
		i = end
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
}

// parseQuoted parses a double-quoted string starting at s[start]=='"',
// honoring \\, \", and \n escapes; returns the value and the index just
// past the closing quote.
func parseQuoted(s string, start int) (string, int, error) {
	var b strings.Builder
	i := start + 1
	for i < len(s) {
		switch c := s[i]; c {
		case '"':
			return b.String(), i + 1, nil
		case '\\':
			if i+1 >= len(s) {
				return "", 0, fmt.Errorf("dangling escape")
			}
			switch s[i+1] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", 0, fmt.Errorf("unknown escape \\%c", s[i+1])
			}
			i += 2
		default:
			b.WriteByte(c)
			i++
		}
	}
	return "", 0, fmt.Errorf("unterminated quoted string")
}

// checkHistogram verifies the histogram invariants for every label
// tuple in the family: buckets cumulative and non-decreasing, a +Inf
// bucket present, and _count equal to the +Inf bucket.
func checkHistogram(fam *ParsedFamily) error {
	type series struct {
		buckets []Bucket
		count   float64
		hasCnt  bool
	}
	byTuple := map[string]*series{}
	get := func(s ParsedSample) *series {
		names := make([]string, 0, len(s.Labels))
		for n := range s.Labels {
			if n != "le" {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		var key strings.Builder
		for _, n := range names {
			fmt.Fprintf(&key, "%s=%q;", n, s.Labels[n])
		}
		sr := byTuple[key.String()]
		if sr == nil {
			sr = &series{}
			byTuple[key.String()] = sr
		}
		return sr
	}
	for _, s := range fam.Samples {
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			le, err := parseValue(s.Label("le"))
			if err != nil {
				return fmt.Errorf("bucket with bad le %q", s.Label("le"))
			}
			sr := get(s)
			sr.buckets = append(sr.buckets, Bucket{LE: le, Count: uint64(s.Value)})
		case strings.HasSuffix(s.Name, "_count"):
			sr := get(s)
			sr.count, sr.hasCnt = s.Value, true
		}
	}
	for tuple, sr := range byTuple {
		if len(sr.buckets) == 0 {
			return fmt.Errorf("series %s has no buckets", tuple)
		}
		last := sr.buckets[len(sr.buckets)-1]
		if !math.IsInf(last.LE, 1) {
			return fmt.Errorf("series %s lacks a +Inf bucket", tuple)
		}
		for i := 1; i < len(sr.buckets); i++ {
			if sr.buckets[i].LE <= sr.buckets[i-1].LE {
				return fmt.Errorf("series %s buckets not ascending", tuple)
			}
			if sr.buckets[i].Count < sr.buckets[i-1].Count {
				return fmt.Errorf("series %s buckets not cumulative", tuple)
			}
		}
		if !sr.hasCnt {
			return fmt.Errorf("series %s lacks _count", tuple)
		}
		if float64(last.Count) != sr.count {
			return fmt.Errorf("series %s: +Inf bucket %d != count %g", tuple, last.Count, sr.count)
		}
	}
	return nil
}
