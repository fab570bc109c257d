package serve

// parseNumber converts the JSON number at b[i:] as the fast parser
// does, with the shared Eisel–Lemire table.
func parseNumber(b []byte, i int) (v float64, next int, ok bool) {
	return detailedPowersOfTen().parseNumber(b, i)
}
