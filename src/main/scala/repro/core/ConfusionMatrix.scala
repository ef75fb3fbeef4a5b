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

  /** Confusion matrix from cluster assignments, read off their
    * [[Contingency]] table: TP is the pairs inside its cells, TP + FP and
    * TP + FN those inside the experiment and the gold clusters.
    *
    * @param exp   experiment cluster ID per record
    * @param gold  ground-truth cluster ID per record (same indexing)
    */
  def fromClusterings(exp: Array[Int], gold: Array[Int]): ConfusionMatrix = {
    requireSameRecords(exp, gold)
    val table = Contingency(exp, gold)
    val tp = Contingency.pairSum(table.cellSize)
    val fp = Contingency.pairSum(table.rowSize) - tp
    val fn = Contingency.clusterPairs(gold) - tp
    ConfusionMatrix(tp, fp, fn, pairsOf(exp.length.toLong) - tp - fp - fn)
  }

  /** Fails unless two cluster assignments cover the same number of
    * records, naming both lengths.
    */
  private[core] def requireSameRecords(exp: Array[Int], gold: Array[Int]): Unit =
    require(exp.length == gold.length,
      s"clusterings must cover the same records: exp has ${exp.length}, gold has ${gold.length}")
}
