package repro.core

/** Pair-level confusion matrix of an experiment E against a ground truth G
  * over a dataset D (Frost, Figure 2):
  *
  *   TP = |E ∩ G|,  FP = |E \ G|,  FN = |G \ E|,  TN = |([D]² \ E) \ G|.
  *
  * All counts are over unordered record pairs.
  */
final case class ConfusionMatrix(tp: Long, fp: Long, fn: Long, tn: Long) {
  require(tp >= 0 && fp >= 0 && fn >= 0 && tn >= 0, s"negative cell in $this")

  /** Pairs the experiment declared matches. */
  def predictedPositive: Long = tp + fp

  /** True duplicate pairs in the ground truth. */
  def actualPositive: Long = tp + fn

  /** Total number of record pairs |[D]²| = C(|D|, 2). */
  def totalPairs: Long = tp + fp + fn + tn
}

object ConfusionMatrix {

  /** Number of unordered pairs among `n` records. */
  def pairsOf(n: Long): Long = n * (n - 1) / 2

  /** Confusion matrix from cluster assignments.
    *
    * @param exp   experiment cluster ID per record
    * @param gold  ground-truth cluster ID per record (same indexing)
    */
  def fromClusterings(exp: Array[Int], gold: Array[Int]): ConfusionMatrix = {
    requireSameRecords(exp, gold)
    val n = exp.length.toLong
    def pairSum(assign: Array[Int]): Long = {
      val counts = new scala.collection.mutable.LongMap[Long]
      assign.foreach(c => counts(c.toLong) = counts.getOrElse(c.toLong, 0L) + 1)
      counts.values.map(pairsOf).sum
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
    val tp = inter.valuesIterator.map(pairsOf).sum
    val fp = expPairs - tp
    val fn = goldPairs - tp
    val tn = pairsOf(n) - tp - fp - fn
    ConfusionMatrix(tp, fp, fn, tn)
  }

  /** Fails unless two cluster assignments cover the same number of
    * records, naming both lengths.
    */
  private[core] def requireSameRecords(exp: Array[Int], gold: Array[Int]): Unit =
    require(exp.length == gold.length,
      s"clusterings must cover the same records: exp has ${exp.length}, gold has ${gold.length}")
}
