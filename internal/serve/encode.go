package serve

import (
	"encoding/json"
	"unicode/utf8"
)

// appendResult appends r's /diagnose answer line: exactly the bytes
// json.Marshal(r) writes, then a newline, as json.Encoder wrote them.
// Fields keep Result's order and omitempty, strings get encoding/json's
// escaping (HTML-safe <, > and &, \u00XX control bytes, U+FFFD for
// invalid UTF-8, escaped U+2028 and U+2029), and Explain, the one
// structured field, is rendered by json.Marshal itself. On an error dst
// comes back as it was.
func appendResult(dst []byte, r *Result) ([]byte, error) {
	n := len(dst)
	dst = append(dst, '{')
	dst = appendField(dst, `"id":`, r.ID)
	dst = appendField(dst, `"class":`, r.Class)
	dst = appendField(dst, `"severity":`, r.Severity)
	dst = appendField(dst, `"cause":`, r.Cause)
	if r.Explain != nil {
		exp, err := json.Marshal(r.Explain)
		if err != nil {
			return dst[:n], err
		}
		dst = append(comma(dst), `"explain":`...)
		dst = append(dst, exp...)
	}
	dst = appendField(dst, `"rule":`, r.Rule)
	dst = appendField(dst, `"trace_id":`, r.TraceID)
	dst = appendField(dst, `"error":`, r.Err)
	return append(dst, '}', '\n'), nil
}

// comma separates a field from the one before it, if any: the object
// so far ends in its '{' only while it has no field.
func comma(dst []byte) []byte {
	if dst[len(dst)-1] != '{' {
		dst = append(dst, ',')
	}
	return dst
}

// appendField appends key (quoted, with its colon) and the quoted val,
// or nothing when val is empty (omitempty).
func appendField(dst []byte, key, val string) []byte {
	if val == "" {
		return dst
	}
	return appendString(append(comma(dst), key...), val)
}

// htmlSafe marks the ASCII bytes encoding/json writes as themselves
// with HTML escaping on: ' ' and above but for ", \, <, > and &.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ { // DEL (0x7f) included
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string, escaped as encoding/json
// escapes it.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default: // other control bytes, <, > and &
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
