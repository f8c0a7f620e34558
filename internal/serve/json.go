// Package serve is the serving kernel under both HTTP services (queryd,
// streamd): the route guard, error type, reply writers and counters
// (kernel.go), the latency histogram (histogram.go), the daemon lifecycle
// (daemon.go) and, in this file, the reflection-free JSON appenders their
// hot replies are built from — one float formatter and one string escaper
// for the tree, byte for byte what encoding/json (SetEscapeHTML(false))
// produces. A service keeps only its routes, parameter parsing and reply
// shapes.
package serve

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendJSONFloat appends f the way encoding/json formats a float64 (the
// ES6 number-to-string rule: shortest round-trip digits, exponent form
// below 1e-6 and from 1e21, "e-09" trimmed to "e-9"), and NaN and ±Inf —
// legal in the archive and the live pipeline, illegal in JSON — as null.
//
//lint:allocfree
func AppendJSONFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(b, "null"...) //lint:allow allocfree appends into the caller's pooled reply buffer
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64) //lint:allow allocfree append-style: writes into the caller's pooled reply buffer
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// Float marshals NaN/Inf as null. It backs the float fields of the
// reflection-encoded replies; the append-encoded replies call
// AppendJSONFloat directly.
type Float float64

// MarshalJSON implements json.Marshaler.
func (f Float) MarshalJSON() ([]byte, error) {
	return AppendJSONFloat(make([]byte, 0, 24), float64(f)), nil
}

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s as a JSON string literal with encoding/json's
// escaping (HTML escaping off): quote, backslash and control characters
// escaped, invalid UTF-8 replaced by U+FFFD, U+2028/U+2029 escaped.
func AppendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	return append(append(b, s[start:]...), '"')
}

// AppendKeyInt appends `"key":v` (key given with its quotes, colon and any
// leading comma).
func AppendKeyInt(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

// AppendKeyFloat is AppendKeyInt for a float value.
func AppendKeyFloat(b []byte, key string, v float64) []byte {
	return AppendJSONFloat(append(b, key...), v)
}

// AppendKeyString is AppendKeyInt for a string value.
func AppendKeyString(b []byte, key, v string) []byte {
	return AppendJSONString(append(b, key...), v)
}
