package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// series is one sample line of a Prometheus text exposition.
type series struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// scrape is one parsed /metrics page.
type scrape []series

// parseProm parses the Prometheus text format the program serves:
// comment lines are skipped, every other line is
// name{label="value",...} value.
func parseProm(r io.Reader) (scrape, error) {
	var out scrape
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := parseSeries(line)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", ln, err)
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

func parseSeries(line string) (series, error) {
	var s series
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return s, fmt.Errorf("no value in %q", line)
	}
	s.Name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		s.Labels = map[string]string{}
		j := 1
		for {
			for j < len(rest) && (rest[j] == ',' || rest[j] == ' ') {
				j++
			}
			if j >= len(rest) {
				return s, fmt.Errorf("unterminated labels in %q", line)
			}
			if rest[j] == '}' {
				j++
				break
			}
			eq := strings.IndexByte(rest[j:], '=')
			if eq < 0 || j+eq+1 >= len(rest) || rest[j+eq+1] != '"' {
				return s, fmt.Errorf("bad label in %q", line)
			}
			key := rest[j : j+eq]
			j += eq + 2
			var val strings.Builder
			for ; j < len(rest) && rest[j] != '"'; j++ {
				c := rest[j]
				if c == '\\' && j+1 < len(rest) {
					j++
					switch rest[j] {
					case 'n':
						c = '\n'
					default:
						c = rest[j]
					}
				}
				val.WriteByte(c)
			}
			if j >= len(rest) {
				return s, fmt.Errorf("unterminated label value in %q", line)
			}
			s.Labels[key] = val.String()
			j++
		}
		rest = rest[j:]
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, fmt.Errorf("no value in %q", line)
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

func parseValue(f string) (float64, error) {
	switch f {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(f, 64)
}

// sum adds every series called name whose labels include match.
func (sc scrape) sum(name string, match map[string]string) float64 {
	var t float64
	for _, s := range sc {
		if s.Name != name {
			continue
		}
		ok := true
		for k, v := range match {
			if s.Labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			t += s.Value
		}
	}
	return t
}

// delta is after.sum − before.sum for one family; a nil before (no
// earlier scrape) counts as zero.
func delta(after, before scrape, name string, match map[string]string) float64 {
	return after.sum(name, match) - before.sum(name, match)
}
