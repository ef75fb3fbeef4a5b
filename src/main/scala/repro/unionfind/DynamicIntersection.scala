package repro.unionfind

import scala.collection.mutable

/** Dynamically maintained intersection clustering of an evolving experiment
  * clustering and a fixed ground-truth clustering (Frost, Appendix D.3).
  *
  * Each intersection cluster is identified by an (experiment cluster,
  * ground-truth cluster) pair and holds the records they have in common.
  * The paper stores, for every experiment cluster, a map from involved
  * ground-truth cluster to the corresponding intersection cluster; we store
  * the same map but keep only the intersection cluster *size*, which is all
  * that is needed to maintain the intersection pair count (= true positives
  * of the confusion matrix).
  *
  * Maps are created lazily: an experiment representative without a map is a
  * singleton cluster, whose intersection is implicitly `{gold(rep) -> 1}`.
  * Construction therefore allocates nothing per record, and a map appears
  * only when a cluster first merges. Merging is small-into-large — the
  * largest source map is the base and every other source, map or implicit
  * singleton, folds into it — so a sequence of m updates over n records
  * costs O((n + m) log n) map moves.
  */
final class DynamicIntersection(goldOf: Array[Int]) {

  /** experiment representative -> (gold cluster -> intersection cluster size),
    * for representatives of clusters with more than one record
    */
  private val byExpCluster = mutable.LongMap.empty[mutable.LongMap[Long]]
  private var pairs        = 0L

  /** Number of intra-cluster pairs of the intersection clustering — equals
    * the TP count of the experiment against the ground truth.
    */
  def pairCount: Long = pairs

  /** Sizes of the intersection clusters of experiment cluster `expRoot`,
    * keyed by gold cluster ID (test/inspection hook). `expRoot` must be a
    * current representative of the experiment clustering.
    */
  def intersectionSizes(expRoot: Int): Map[Long, Long] =
    byExpCluster.get(expRoot.toLong).map(_.toMap).getOrElse(Map(goldOf(expRoot).toLong -> 1L))

  /** Apply a batch of experiment-cluster merges as reported by
    * [[UnionFind.trackedUnion]] (Algorithm 2 of the paper).
    */
  def update(merges: IterableOnce[Merge]): Unit = {
    val it = merges.iterator
    while (it.hasNext) {
      val Merge(target, sources) = it.next()
      // The largest existing map among the sources is the base; when every
      // source is a singleton, a fresh map is.
      var base: mutable.LongMap[Long] = null
      var baseSrc = -1
      sources.foreach { src =>
        val m = byExpCluster.getOrNull(src.toLong)
        if (m != null && (base == null || m.size > base.size)) { base = m; baseSrc = src }
      }
      if (base == null) base = mutable.LongMap.empty[Long]
      sources.foreach { src =>
        if (src != baseSrc) {
          val m = byExpCluster.getOrNull(src.toLong)
          if (m == null) add(base, goldOf(src).toLong, 1L)
          else {
            byExpCluster -= src.toLong
            m.foreachEntry((gold, cnt) => add(base, gold, cnt))
          }
        }
      }
      if (baseSrc != target) {
        if (baseSrc >= 0) byExpCluster -= baseSrc.toLong
        byExpCluster(target.toLong) = base
      }
    }
  }

  /** Joins `cnt` records of gold cluster `gold` to `base`. The intersection
    * cluster of size `prev` and the one of size `cnt` now share an
    * experiment cluster, which adds `prev * cnt` pairs.
    */
  private def add(base: mutable.LongMap[Long], gold: Long, cnt: Long): Unit = {
    val prev = base.getOrElse(gold, 0L)
    pairs += prev * cnt
    base(gold) = prev + cnt
  }
}
