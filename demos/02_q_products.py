"""
q-Pochhammer products and geometric combs
=========================================

The generating functions in this library are assembled from two kinds of
building blocks: infinite products over arithmetic progressions of
exponents, and single geometric series q^a/(1-q^d).
"""

from echopart import GeometricSpec, PochhammerSpec, evaluate, geometric, pochhammer

N = 16

# (q;q)_inf = (1-q)(1-q^2)(1-q^3)...  Each factor is (sign, offset, step):
# the product runs over exponents offset, offset+step, offset+2*step, ...
euler = PochhammerSpec(((1, 1, 1),))
print("(q;q)_inf     =", pochhammer(euler, N))

# Euler's pentagonal number theorem: the only nonzero coefficients are
# (-1)^k at the pentagonal numbers k(3k-1)/2, k = 0, +-1, +-2, ...  pochhammer
# writes those O(sqrt(N)) terms directly instead of multiplying N binomials,
# so even a high order is instant.
terms = pochhammer(euler, 100_000).coeffs
print("(q;q)_inf to q^100000 has", len(terms) - terms.count(0), "nonzero terms")

# Its reciprocal generates the partition numbers 1, 1, 2, 3, 5, 7, 11, ...
# inversion only visits the nonzero input terms.
print("1/(q;q)_inf   =", pochhammer(euler, N).invert())

# sign -1 flips a factor to (1 + q^e): distinct-part generating functions.
distinct = PochhammerSpec(((-1, 1, 1),))
print("(-q;q)_inf    =", pochhammer(distinct, N))

# Several factors interleave progressions, here exponents 2, 4, 8, 10, ...
two_track = PochhammerSpec(((-1, 2, 6), (-1, 4, 6)))
print("(-q^2,-q^4;q^6)_inf =", pochhammer(two_track, N))

# A dense reciprocal: evaluate divides 1 by one symbol at a time, each by
# Cauchy's series 1/(z;p) = sum z^n p^(n^2-n) / ((p;p)_n (z;p)_n), instead of
# expanding the product and inverting it.
print("1/(-q,-q^2;q)_inf =", evaluate("1/(-q,-q^2;q)", N))

# Jacobi's triple product: (z, q^m/z, q^m; q^m) = sum over all integers k of
# (-z)^k q^(m*k*(k-1)/2).  With z = -q, m = 2 this is theta_3(q), the sum of
# q^(k^2): twos at every nonzero square.  Three factors of this shape, in
# any order, expand sparsely too.
theta3 = PochhammerSpec(((-1, 1, 2), (-1, 1, 2), (1, 2, 2)))
print("(-q,-q,q^2;q^2)_inf =", pochhammer(theta3, N))

# A geometric comb puts a 1 on every multiple of the period, shifted.
print("q^2/(1-q^4)   =", geometric(GeometricSpec(2, 4), N))
print("1/(1-q^3)     =", geometric(GeometricSpec(0, 3), N))
