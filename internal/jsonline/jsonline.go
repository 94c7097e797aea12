// Package jsonline is the jobs API's one JSON writer and one JSON reader,
// both without reflection.
//
// The writer appends JSON scalars to a byte slice exactly as
// encoding/json.Marshal writes them, byte for byte. It is the one string
// escaper of the jobs API's lines — the server's row and job-resource
// lines and the client's request body — and of the storage WAL's records.
//
// The reader, Scanner, accepts exactly the syntax encoding/json accepts
// and unescapes strings as it does. The server reads a submit body with
// it and the client the server's lines; each matches member names its
// own way.
package jsonline

import (
	"math"
	"strconv"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// The two code points json.Marshal escapes although JSON allows them raw:
// LINE SEPARATOR and PARAGRAPH SEPARATOR (they end a line in JavaScript).
const (
	lineSep = 0x2028
	paraSep = 0x2029
)

// AppendString appends s as a JSON string the way json.Marshal quotes
// it: `"` and `\` backslash-escaped; control bytes as \b, \f, \n, \r, \t
// or a six-byte \u escape; `<`, `>`, `&` and the two separators above as
// six-byte \u escapes too; and every byte of invalid UTF-8 as the escape
// of U+FFFD.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
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
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
		case c == lineSep || c == paraSep:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
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

// AppendFloat appends a finite f the way json.Marshal writes a float64:
// the shortest decimal that reads back as f, in exponent form only below
// 1e-6 or from 1e21, with the exponent unpadded (1e-7, not 1e-07).
// json.Marshal refuses NaN and ±Inf; callers must not pass them.
func AppendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}
