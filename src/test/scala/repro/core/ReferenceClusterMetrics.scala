package repro.core

import scala.collection.mutable

/** The cluster metrics and the clustering confusion matrix as maps of
  * record sets and boxed counters, the references [[ClusterMetrics]] and
  * [[ConfusionMatrix.fromClusterings]] are checked against: closest-cluster
  * precision and recall intersect record sets, variation of information and
  * the confusion matrix count clusters and cells in hash maps, and the
  * generalized merge distance groups each experiment cluster's parts by
  * gold cluster in a map.
  */
object ReferenceClusterMetrics {

  /** Confusion matrix from cluster assignments.
    *
    * @param exp   experiment cluster ID per record
    * @param gold  ground-truth cluster ID per record (same indexing)
    */
  def fromClusterings(exp: Array[Int], gold: Array[Int]): ConfusionMatrix = {
    ConfusionMatrix.requireSameRecords(exp, gold)
    val n = exp.length.toLong
    def pairSum(assign: Array[Int]): Long = {
      val counts = new scala.collection.mutable.LongMap[Long]
      assign.foreach(c => counts(c.toLong) = counts.getOrElse(c.toLong, 0L) + 1)
      counts.values.map(ConfusionMatrix.pairsOf).sum
    }
    val expPairs  = pairSum(exp)
    val goldPairs = pairSum(gold)
    // TP = pairs of the intersection clustering (records agreeing on both IDs).
    val inter = new scala.collection.mutable.HashMap[(Int, Int), Long]
    var i = 0
    while (i < exp.length) {
      val k = (exp(i), gold(i))
      inter(k) = inter.getOrElse(k, 0L) + 1
      i += 1
    }
    val tp = inter.valuesIterator.map(ConfusionMatrix.pairsOf).sum
    val fp = expPairs - tp
    val fn = goldPairs - tp
    val tn = ConfusionMatrix.pairsOf(n) - tp - fp - fn
    ConfusionMatrix(tp, fp, fn, tn)
  }

  private def clustersOf(assign: Array[Int]): Map[Int, Set[Int]] = {
    val m = mutable.HashMap.empty[Int, mutable.Set[Int]]
    var i = 0
    while (i < assign.length) {
      m.getOrElseUpdate(assign(i), mutable.Set.empty[Int]) += i
      i += 1
    }
    m.iterator.map { case (k, v) => k -> v.toSet }.toMap
  }

  private def jaccard(a: Set[Int], b: Set[Int]): Double = {
    val inter = a.intersect(b).size
    if (inter == 0) 0.0 else inter.toDouble / (a.size + b.size - inter)
  }

  /** Closest-cluster precision: mean over experiment clusters of the best
    * Jaccard similarity to any ground-truth cluster (Benjelloun et al. /
    * Menestrina et al.).
    */
  def closestClusterPrecision(exp: Array[Int], gold: Array[Int]): Double = {
    ConfusionMatrix.requireSameRecords(exp, gold)
    meanBestJaccard(clustersOf(exp), clustersOf(gold))
  }

  /** Closest-cluster recall: mean over ground-truth clusters of the best
    * Jaccard similarity to any experiment cluster.
    */
  def closestClusterRecall(exp: Array[Int], gold: Array[Int]): Double = {
    ConfusionMatrix.requireSameRecords(exp, gold)
    meanBestJaccard(clustersOf(gold), clustersOf(exp))
  }

  /** Closest-cluster f1 (harmonic mean of the above). */
  def closestClusterF1(exp: Array[Int], gold: Array[Int]): Double = {
    val p = closestClusterPrecision(exp, gold)
    val r = closestClusterRecall(exp, gold)
    if (p + r == 0) 0.0 else 2 * p * r / (p + r)
  }

  private def meanBestJaccard(from: Map[Int, Set[Int]], to: Map[Int, Set[Int]]): Double = {
    if (from.isEmpty) return 0.0
    // Only clusters sharing at least one record can have Jaccard > 0, so we
    // index `to` by record to avoid the quadratic cluster cross-product.
    val byRecord = mutable.HashMap.empty[Int, Set[Int]]
    to.values.foreach(c => c.foreach(r => byRecord(r) = c))
    val total = from.values.iterator.map { c =>
      c.iterator.flatMap(byRecord.get).distinct.map(jaccard(c, _)).maxOption.getOrElse(0.0)
    }.sum
    total / from.size
  }

  /** Variation of information (Meilă 2003): H(exp|gold) + H(gold|exp).
    * 0 iff the clusterings are identical; uses natural log.
    */
  def variationOfInformation(exp: Array[Int], gold: Array[Int]): Double = {
    ConfusionMatrix.requireSameRecords(exp, gold)
    val n = exp.length.toDouble
    if (n == 0) return 0.0
    val pe = mutable.LongMap.empty[Long]; val pg = mutable.LongMap.empty[Long]
    val joint = mutable.HashMap.empty[(Int, Int), Long]
    var i = 0
    while (i < exp.length) {
      pe(exp(i).toLong) = pe.getOrElse(exp(i).toLong, 0L) + 1
      pg(gold(i).toLong) = pg.getOrElse(gold(i).toLong, 0L) + 1
      val k = (exp(i), gold(i))
      joint(k) = joint.getOrElse(k, 0L) + 1
      i += 1
    }
    def h(counts: Iterator[Long]): Double =
      -counts.map(_ / n).filter(_ > 0).map(p => p * math.log(p)).sum
    val hE = h(pe.values.iterator)
    val hG = h(pg.values.iterator)
    val hJoint = h(joint.valuesIterator)
    // VI = 2*H(joint) - H(E) - H(G)
    2 * hJoint - hE - hG
  }

  /** Generalized merge distance (Menestrina, Whang, Garcia-Molina 2010) with
    * configurable merge/split costs `fm`/`fs`, each a function of the two
    * part sizes involved. With fm = fs = (_, _) => 1 this is the minimum
    * number of cluster merge/split operations to turn `exp` into `gold`.
    *
    * Each experiment cluster splits off its gold-pure parts in ascending
    * size, `fs(part, rest)`, keeping the largest; each gold cluster then
    * merges its parts in ascending size, `fm(merged so far, part)`. The
    * costs are summed in ascending order. Both orders depend on sizes only,
    * so relabelling either clustering leaves the distance as it is, bit for
    * bit.
    */
  def generalizedMergeDistance(
      exp: Array[Int],
      gold: Array[Int],
      fm: (Long, Long) => Double = (_, _) => 1.0,
      fs: (Long, Long) => Double = (_, _) => 1.0,
  ): Double = {
    ConfusionMatrix.requireSameRecords(exp, gold)
    // Slice algorithm: split every experiment cluster into its gold-pure
    // parts (split costs), then build each gold cluster by merging its parts
    // (merge costs). This ordering is cost-minimal for monotone cost models.
    val costs = mutable.ArrayBuffer.empty[Double]
    // parts: per experiment cluster, sizes grouped by gold cluster
    val parts = mutable.HashMap.empty[Int, mutable.LongMap[Long]]
    var i = 0
    while (i < exp.length) {
      val m = parts.getOrElseUpdate(exp(i), mutable.LongMap.empty[Long])
      m(gold(i).toLong) = m.getOrElse(gold(i).toLong, 0L) + 1
      i += 1
    }
    parts.values.foreach { m =>
      if (m.size > 1) {
        // Sequentially split parts off the remainder.
        var remaining = m.values.sum
        m.values.toSeq.sorted.dropRight(1).foreach { part =>
          costs += fs(part, remaining - part)
          remaining -= part
        }
      }
    }
    // merges: per gold cluster, the pure parts contributed by experiment clusters
    val goldParts = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Long]]
    parts.foreach { case (_, m) =>
      m.foreach { case (g, cnt) =>
        goldParts.getOrElseUpdate(g.toInt, mutable.ArrayBuffer.empty[Long]) += cnt
      }
    }
    goldParts.values.map(_.sorted).foreach { sizes =>
      var acc = sizes.head
      sizes.tail.foreach { s => costs += fm(acc, s); acc += s }
    }
    costs.sorted(Ordering.Double.TotalOrdering).sum
  }
}
