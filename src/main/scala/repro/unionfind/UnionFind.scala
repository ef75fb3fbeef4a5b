package repro.unionfind

import scala.collection.mutable

/** A merge event reported by [[UnionFind.trackedUnion]].
  *
  * `target` is the representative (cluster ID) of the merged cluster after
  * the batch; `sources` are the representatives of all pre-batch clusters
  * that ended up inside `target` (including the pre-batch cluster that
  * happens to share `target`'s representative). Matches the semantics of
  * the paper's `trackedUnion` (Frost, Appendix D.1).
  */
final case class Merge(target: Int, sources: Vector[Int])

/** Union-find over `0 until n` with union-by-size, path compression, and
  * live intra-cluster pair counting.
  *
  * `pairCount` is the number of unordered record pairs that share a cluster
  * (i.e. the size of the transitively closed match set the structure
  * represents). It is maintained incrementally: merging clusters of sizes
  * a and b adds a*b pairs.
  */
final class UnionFind(val n: Int) {
  require(n >= 0, s"n must be non-negative, got $n")

  private val parent = new Array[Int](n)
  private val sz     = new Array[Int](n)
  private var pairs  = 0L

  {
    var i = 0
    while (i < n) { parent(i) = i; sz(i) = 1; i += 1 }
  }

  /** Representative of `x`'s cluster (with path compression). */
  def find(x: Int): Int = {
    var root = x
    while (parent(root) != root) root = parent(root)
    var cur = x
    while (parent(cur) != root) { val next = parent(cur); parent(cur) = root; cur = next }
    root
  }

  /** Number of records in `x`'s cluster. */
  def size(x: Int): Int = sz(find(x))

  /** Total number of intra-cluster (matched) pairs. */
  def pairCount: Long = pairs

  /** Merge the clusters of `a` and `b`; returns the surviving representative,
    * or -1 if they already shared a cluster. The survivor is the root of the
    * larger of the two clusters (`a`'s on a tie).
    */
  def union(a: Int, b: Int): Int = {
    val ra = find(a); val rb = find(b)
    if (ra == rb) -1
    else {
      var big = ra; var small = rb
      if (sz(ra) < sz(rb)) { big = rb; small = ra }
      parent(small) = big
      pairs += sz(big).toLong * sz(small).toLong
      sz(big) += sz(small)
      big
    }
  }

  /** Batched union over `batch` reporting which pre-batch clusters merged.
    *
    * Per the paper: one [[Merge]] entry per surviving (post-batch) cluster
    * that absorbed at least one other pre-batch cluster, listing every
    * pre-batch representative now contained in it. A root is only ever
    * replaced by the root it is unioned into, so every root seen during the
    * batch is a pre-batch root. The entries come in ascending `target`
    * order, each with its `sources` ascending: one sort of the merged roots,
    * each packed with its post-batch root into a `Long`, groups them.
    */
  def trackedUnion(batch: IterableOnce[(Int, Int)]): Vector[Merge] = {
    val merged = new mutable.ArrayBuilder.ofInt
    val it = batch.iterator
    while (it.hasNext) {
      val (a, b) = it.next()
      val ra = find(a); val rb = find(b)
      if (ra != rb) { merged += ra; merged += rb; union(ra, rb) }
    }
    val roots = merged.result()
    val packed = new Array[Long](roots.length)
    var i = 0
    while (i < roots.length) { packed(i) = (find(roots(i)).toLong << 32) | roots(i); i += 1 }
    java.util.Arrays.sort(packed)
    val out = Vector.newBuilder[Merge]
    i = 0
    while (i < packed.length) {
      val target = (packed(i) >>> 32).toInt
      val sources = Vector.newBuilder[Int]
      while (i < packed.length && (packed(i) >>> 32).toInt == target) {
        if (i == 0 || packed(i) != packed(i - 1)) sources += packed(i).toInt
        i += 1
      }
      out += Merge(target, sources.result())
    }
    out.result()
  }

  /** Cluster assignment snapshot: record index -> representative. */
  def toClustering: Array[Int] = Array.tabulate(n)(find)
}
