#!/usr/bin/env bash
# The README session and the console pins, run through whichever `chibound`
# is first on PATH, in the current directory, which receives the files it
# writes.  `bash tests/smoke.sh` runs every pin; `bash tests/smoke.sh --fast`
# stops before the slow ones, the large members at the end.  Any failed
# check exits nonzero.
set -eo pipefail

# The first three commands must exit 0; with a one-node budget the coloring
# cannot finish and must exit 3 (budget exhausted).  The Grotzsch graph has
# chi 4; with 20 nodes the solve runs out inside the k = 3 search, so the
# bounds it prints check that search's tick accounting end to end.
chibound gen --family grotzsch -o g.g6
chibound color --class kitefree g.g6 --coloring-out c.txt --audit-out t.txt
chibound verify g.g6 --coloring c.txt
code=0
chibound color --class kitefree g.g6 --budget-nodes 1 || code=$?
test "$code" -eq 3
out=$(chibound chi g.g6)
test "$out" = 4
code=0
out=$(chibound chi g.g6 --budget-nodes 20) || code=$?
test "$code" -eq 3
test "$out" = "chi lower=3 upper=4"

# The four samples pin the sampler's draws by pair index on every Python
# version, and with the HammerFree hunt they pin the anchored kernels'
# verdicts for the kite, C5 and hammer classes.  The KiteFree coloring of
# the sampled KiteFree member pins its trace's bytes: a header and eight
# steps, five reduce/dominated-pair and the bound/final-palette step among
# them, the two claims whose assertions carry values (the vertex pair; the
# class and omega).  The C5Free coloring of the sampled C5Free member pins
# the C5 procedure's second-neighborhood split, trace bytes included.
out=$(chibound gen --sample K4Free --n 10 --p 0.3 --seed 5)
test "$out" = "IG_?aTWuo"
out=$(chibound gen --sample K1K3Free --n 9 --p 0.5 --seed 3)
test "$out" = "H|vrZZk"
out=$(chibound gen --sample KiteFree --n 12 --p 0.8 --seed 2)
test "$out" = 'K^~^u~vNtz}~'
printf '%s\n' "$out" > kite.g6
out=$(chibound color --class kitefree kite.g6 --audit-out tk.txt)
test "$out" = "0 0 1 2 3 4 4 1 5 0 6 3"
test "$(wc -l < tk.txt)" -eq 9
echo "a0e7032831bb52c6727fe66a02d59c721f1879a4804ab0205251c0b41119ee6b  tk.txt" | sha256sum -c -
out=$(chibound gen --sample C5Free --n 12 --p 0.8 --seed 2)
test "$out" = 'Kz]}~^~}}brK'
printf '%s\n' "$out" > c5.g6
out=$(chibound color --class c5free c5.g6 --audit-out t5.txt)
test "$out" = "0 1 2 3 0 1 2 3 4 5 2 2"
test "$(wc -l < t5.txt)" -eq 59
echo "b8bb78ffee313e84465a01ed580e9e40e5d1b3bd4584b81be5a69a4d42e4e4ba  t5.txt" | sha256sum -c -

# The P2K3Free hunt pins the hunt's accept rule, one k-colorability
# decision per toggle: after its start solve it makes 40 decisions at k = 4
# and k = 5, and 10 of them keep a move.
out=$(chibound hunt --class HammerFree --n 12 --steps 60 --seed 3)
test "$out" = "$(printf '%s\n%s' \
  'class=HammerFree n=12 m=43 chi=6 omega=6 evaluations=21 steps=60 seed=3 noteworthy=false' \
  'K^VzyGotl^z{')"
out=$(chibound hunt --class P2K3Free --n 12 --steps 100 --seed 5)
test "$out" = "$(printf '%s\n%s' \
  'class=P2K3Free n=12 m=31 chi=5 omega=5 evaluations=41 steps=100 seed=5 noteworthy=false' \
  'KAO~j?EXbMrN')"

# The suite reports, ms fields stripped, are pinned by their sha256 under
# the default budget: for KiteFree, chi settled from omega and the palette
# must print what a full solve printed; C5Free and HammerFree are the
# classes whose records carry the most audit steps and omega solves.  Under
# a 3-node budget a chi solve given the trace's clique counts k-search nodes
# only, and a clique search cut short with bounds that meet proves omega;
# both pin the footer of that run (exit 3, records unknown).
out=$(chibound suite --class KiteFree --n 12 --count 100 --seed 0 | sed -E 's/ ms=[0-9.]+//' | sha256sum)
test "$out" = "ba3a922bbe957a2ff9c9a5f2379a42cdfbe72284b5e233417ad1e31dfe3a942a  -"
out=$(chibound suite --class C5Free --n 12 --count 100 --seed 0 | sed -E 's/ ms=[0-9.]+//' | sha256sum)
test "$out" = "5479f1c7ea58e3fcf0936480e9646349f7522494944c813038df2ca3031301fe  -"
out=$(chibound suite --class HammerFree --n 12 --count 100 --seed 0 | sed -E 's/ ms=[0-9.]+//' | sha256sum)
test "$out" = "cd19d590c094207cfc71fb55fbb4d2ab672f93ab025ba9e046caa002258fc36b  -"
code=0
out=$(chibound suite --class KiteFree --n 12 --count 60 --seed 0 --budget-nodes 3) || code=$?
test "$code" -eq 3
test "$(printf '%s\n' "$out" | tail -n 1)" = "total=60 pass=47 fail=0 unknown=13 sample-fail=0 soft-gap=0"

# G(200, 1/2) at seed 1 (10114 edges) pins gnp's stream by its graph6 bytes
# on every Python version, in columns of up to 199 lanes, each drawn as one
# packed mix.  detect and member on a G(12, 1/2) draw and on the Schlafli
# complement pin the pattern search's witnesses and verdicts; a copy found
# exits 0 from detect and 1 from member.  The hammer, kite, K1+K3, P2+K3
# and 2K3 share one absence kernel, read triangle by triangle with the
# vertices anticomplete to each: the Schlafli complement is K1+K3-free, so
# every one of its triangles dominates, leaves that set empty and is
# cleared, and all five print absent; on the G(12, 1/2) draw the kernel
# sees a hammer and a kite, and the search pins their copies.
chibound gen --gnp 12 0.5 --seed 1 -o gnp.g6
chibound gen --gnp 200 0.5 --seed 1 -o big.g6
echo "cd1769881985b10c91410a87cfaae796ad682198561a907c8ee8c018e209861f  big.g6" | sha256sum -c -
out=$(chibound detect --pattern 2k3 gnp.g6)
test "$out" = "found pattern=2k3 vertices=0,4,9,1,3,6"
out=$(chibound detect --pattern hammer gnp.g6)
test "$out" = "found pattern=hammer vertices=4,9,0,5,1"
out=$(chibound detect --pattern kite gnp.g6)
test "$out" = "found pattern=kite vertices=3,1,6,11,0"
code=0
out=$(chibound member --class C5Free gnp.g6) || code=$?
test "$code" -eq 1
test "$out" = "non-member class=C5Free pattern=c5 vertices=0,2,4,6,11"

# The K4Free coloring of the Schlafli complement pins a whole serialized
# trace, empty sets and the two-vertex Y=7,12 included, by its bytes.  chi
# of the Schlafli complement is 6 and its solve takes 7020 nodes, nearly all
# of them the refutation of k = 5: one node fewer must exit 3 with the
# bounds 5 and 6, which pins the k search's tick accounting on the hardest
# refutation the witnesses make.
chibound gen --family schlafli_complement -o s.g6
out=$(chibound color --class k4free s.g6 --audit-out t4.txt)
test "$out" = "0 0 1 1 1 1 2 3 4 4 4 4 4 3 3 3 3 5 5 5 5 0 0 0 2 2 2"
test "$(wc -l < t4.txt)" -eq 19
echo "47c53b48ab1f0467018172f85d492fe17b5323396b17d9367952b42d8cb5f3be  t4.txt" | sha256sum -c -
code=0
out=$(chibound detect --pattern 2k3 s.g6) || code=$?
test "$code" -eq 1
test "$out" = "absent pattern=2k3"
for pattern in hammer kite k1_union_k3 p2_union_k3; do
  code=0
  out=$(chibound detect --pattern "$pattern" s.g6) || code=$?
  test "$code" -eq 1
  test "$out" = "absent pattern=$pattern"
done
out=$(chibound member --class K4Free s.g6)
test "$out" = "member class=K4Free"
out=$(chibound chi s.g6)
test "$out" = 6
code=0
out=$(chibound chi s.g6 --budget-nodes 7019) || code=$?
test "$code" -eq 3
test "$out" = "chi lower=5 upper=6"
out=$(chibound chi s.g6 --budget-nodes 7020)
test "$out" = 6

# kite-odd-2 (order 38) is a join, so its solve runs the split path: chi 10
# in 7048 nodes, and one node fewer must exit 3 with the bounds 9 and 10,
# which pins the per-part k searches under the one shared budget.
# kite-even-4 (order 44, 806 edges) is a dense join that the reader takes in
# through its bit square: chi 16, and a KiteFree member.  A part of a join
# that does not start at vertex 0 reaches its absence kernel as its own
# rows, shifted down to bit 0: kite-odd-3 (order 49) has its Schlafli part
# at ids 22..48 and is a KiteFree member, and the join of K_{2x16} (ids
# 0..31) with a P3+P2 holds its one copy at ids 32..36.  find_induced seeks
# a co-connected pattern one co-component at a time: on kite-odd-2 the
# kernels clear its Grotzsch and Schlafli parts (member and the absent
# hammer), and the house, which has no kernel, is searched in the Grotzsch
# part, found absent there, and found in the second part, with the copy the
# whole search finds.
chibound gen --family kite-odd --k 2 -o ko2.g6
out=$(chibound chi ko2.g6)
test "$out" = 10
code=0
out=$(chibound chi ko2.g6 --budget-nodes 7047) || code=$?
test "$code" -eq 3
test "$out" = "chi lower=9 upper=10"
out=$(chibound chi ko2.g6 --budget-nodes 7048)
test "$out" = 10
out=$(chibound member --class kitefree ko2.g6)
test "$out" = "member class=KiteFree"
chibound gen --family kite-even --k 4 -o ke4.g6
out=$(chibound chi ke4.g6)
test "$out" = 16
out=$(chibound member --class kitefree ke4.g6)
test "$out" = "member class=KiteFree"
chibound gen --family kite-odd --k 3 -o ko3.g6
out=$(chibound member --class kitefree ko3.g6)
test "$out" = "member class=KiteFree"
python -c 'from functools import reduce; from chibound import dumps, empty, join, named_graph; print(dumps(join(reduce(join, [empty(2)] * 16), named_graph("p3_union_p2")), "graph6"))' > k2p.g6
out=$(chibound detect --pattern p3_union_p2 k2p.g6)
test "$out" = "found pattern=p3_union_p2 vertices=32,33,34,35,36"
code=0
out=$(chibound detect --pattern hammer ko2.g6) || code=$?
test "$code" -eq 1
test "$out" = "absent pattern=hammer"
out=$(chibound detect --pattern house ko2.g6)
test "$out" = "found pattern=house vertices=11,13,23,20,18"

# The kite colorer's leaf needs only a coloring within 2 * omega = 6, so it
# refutes k = 3 and takes the greedy 6-coloring without those k = 4 and
# k = 5 refutations: it must finish under 100 nodes.  A graph6 line with a
# trailing control byte (0x1f) is out of range and must exit 2, not be read
# with the byte stripped.
err=$(chibound color --class kitefree s.g6 --budget-nodes 100 2>&1 >/dev/null)
case "$err" in *" palette=6 bound=6 omega=3 steps=3 "*) ;; *) echo "$err"; exit 1 ;; esac
code=0
printf 'D?{\x1f\n' | chibound member --class kitefree - || code=$?
test "$code" -eq 2

# The kite colorer on the cocktail party graph K_{2x700} reduces 700
# dominated vertices and must finish well inside a minute: palette 700 and
# 703 audit steps.
python -c 'from chibound import Graph, dumps; n = 1400; print(dumps(Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if u // 2 != v // 2]), "graph6"))' > cp.g6
err=$(timeout 60 chibound color --class kitefree cp.g6 --audit-out tcp.txt 2>&1 >/dev/null)
case "$err" in *" palette=700 "*" steps=703 "*) ;; *) echo "$err"; exit 1 ;; esac
test "$(wc -l < tcp.txt)" -eq 704

if [ "${1:-}" = --fast ]; then
  exit 0
fi

# Every colorer runs its levels on one explicit stack of generators, so no
# member is too deep for the interpreter's recursion limit.  K_{2x1100} has
# no P2+K3, so the hammer colorer hands it to the clique-rooted chain, one
# level per pair: palette 1100 and 5496 audit steps.  The C5 colorer on it
# goes one level per pair too: palette 1100 and 14276 audit steps.  On the
# join of 300 copies of K2 + K3, each K2 first, every clique audit solves a
# join, which the clique search proves part by part and answers with the
# union of the parts' cliques, with no second search of the whole join: the
# hammer colorer must finish well inside a minute, with palette 900 and 2101
# audit steps.  The kite colorer on the join of 400 copies of K3 + K2 splits
# at a P2 + K3 one level per copy: palette 1200 and 5201 audit steps.
python -c 'from chibound import Graph, dumps; n = 2200; print(dumps(Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if u // 2 != v // 2]), "graph6"))' > cp1100.g6
err=$(timeout 120 chibound color --class hammerfree cp1100.g6 2>&1 >/dev/null)
case "$err" in *" palette=1100 "*" steps=5496 "*) ;; *) echo "$err"; exit 1 ;; esac
err=$(timeout 120 chibound color --class c5free cp1100.g6 2>&1 >/dev/null)
case "$err" in *" palette=1100 "*" steps=14276 "*) ;; *) echo "$err"; exit 1 ;; esac
python -c 'from functools import reduce; from chibound import complete, disjoint_union, dumps, join; print(dumps(reduce(join, [disjoint_union(complete(2), complete(3))] * 300), "graph6"))' > k2j.g6
err=$(timeout 60 chibound color --class hammerfree k2j.g6 2>&1 >/dev/null)
case "$err" in *" palette=900 "*" steps=2101 "*) ;; *) echo "$err"; exit 1 ;; esac
python -c 'from functools import reduce; from chibound import complete, disjoint_union, dumps, join; print(dumps(reduce(join, [disjoint_union(complete(3), complete(2))] * 400), "graph6"))' > k3j.g6
err=$(timeout 60 chibound color --class kitefree k3j.g6 2>&1 >/dev/null)
case "$err" in *" palette=1200 "*" steps=5201 "*) ;; *) echo "$err"; exit 1 ;; esac
