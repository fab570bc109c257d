package mat

import "errors"

// ErrSingular is returned when a solve encounters an (effectively)
// rank-deficient system.
var ErrSingular = errors.New("mat: matrix is singular or rank-deficient")
