"""Exact linear algebra: RREF, solving, kernels, and the subspace lattice.

Everything runs over Q with arbitrary-precision fractions (or over F_p);
no floating point appears anywhere, so ranks and memberships are exact.
"""

from grpd import Field, Matrix, Subspace, rref, solve, kernel

Q = Field(0)


def qm(rows):
    return Matrix(Q, [[Q(x) for x in r] for r in rows])


print("== reduced row echelon form ==")
m = qm([["1/2", 1, 3], [1, 2, 6], [0, 1, "4/3"]])
red, rank = rref(m)
print("rank:", rank)
for row in red.rows:
    print("  ", [str(x) for x in row])

print("\n== solving exactly ==")
x = solve(m, [Q(1), Q(2), Q(0)])
print("solution:", [str(c) for c in x])
print("reconstructs rhs exactly:", m.apply(x) == [Q(1), Q(2), Q(0)])

print("\n== kernels ==")
k = kernel(qm([[1, 1, 0], [0, 0, 1]]))
print("kernel dim:", k.dim, "basis:", [[str(c) for c in b] for b in k.basis])

print("\n== the modular law of the subspace lattice ==")
a = Subspace.from_vectors(Q, 4, [[Q(1), Q(0), Q(1), Q(0)], [Q(0), Q(1), Q(0), Q(0)]])
b = Subspace.from_vectors(Q, 4, [[Q(1), Q(1), Q(1), Q(0)], [Q(0), Q(0), Q(0), Q(1)]])
s = a.sum(b)
i = a.intersect(b)
print(f"dim a = {a.dim}, dim b = {b.dim}, dim(a+b) = {s.dim}, dim(a^b) = {i.dim}")
print("dimension formula holds:", a.dim + b.dim == s.dim + i.dim)

print("\n== prime fields ==")
F7 = Field(7)
m7 = Matrix(F7, [[F7(3), F7(1)], [F7(1), F7(5)]])
print("rank over F_7:", rref(m7)[1])
print("3/5 in F_7:", F7(3 * F7.inv(5)))
