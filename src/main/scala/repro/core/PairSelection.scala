package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** Pair selection strategies (Frost, Section 4.2): reduce a scored,
  * labelled pair set to the few pairs worth a human's attention.
  *
  * Input convention: a DataFrame with at least
  *   a: Long, b: Long, score: Double, correct: Boolean
  * where `correct` says whether the solution classified the pair correctly
  * against the ground truth (TP or TN for classified pairs).
  */
object PairSelection {

  /** Pairs around the threshold (4.2.1): `k/2` pairs directly above and
    * `k/2` directly below the similarity threshold.
    */
  def aroundThreshold(pairs: DataFrame, threshold: Double, k: Int): DataFrame =
    around(pairs, threshold, k, k / 2)

  /** Pairs around the threshold with the above/below budget split by a
    * proportion (e.g. the ratio of misclassified pairs above vs below).
    */
  def aroundThresholdProportional(pairs: DataFrame, threshold: Double, k: Int, aboveFraction: Double): DataFrame = {
    require(aboveFraction >= 0 && aboveFraction <= 1, s"fraction out of range: $aboveFraction")
    around(pairs, threshold, k, math.round(k * aboveFraction).toInt)
  }

  /** The `kAbove` pairs directly above (or at) the threshold and the
    * `k - kAbove` directly below it.
    */
  private def around(pairs: DataFrame, threshold: Double, k: Int, kAbove: Int): DataFrame = {
    val score = SetComparison.checkedScore
    val above = pairs.filter(score >= threshold).orderBy(score.asc).limit(kAbove)
    val below = pairs.filter(score < threshold).orderBy(score.desc).limit(k - kAbove)
    above.union(below)
  }

  /** Incorrectly labeled outliers (4.2.2): the misclassified pairs furthest
    * from the threshold.
    */
  def incorrectOutliers(pairs: DataFrame, threshold: Double, k: Int): DataFrame =
    pairs.filter(!col("correct"))
      .orderBy(abs(SetComparison.checkedScore - threshold).desc)
      .limit(k)

  /** Percentiles with representatives (4.2.3): sort by score, split into
    * `numPartitions` equal-frequency partitions, sample `b` representatives
    * per partition. Returns the representatives plus their partition index.
    *
    * @param sampling "random" | "class" | "quantile"
    */
  def percentileRepresentatives(
      pairs: DataFrame,
      numPartitions: Int,
      b: Int,
      sampling: String = "quantile",
      seed: Long = 42,
  ): DataFrame = {
    require(numPartitions >= 1 && b >= 1, "need positive partition count and budget")
    val ranked = pairs.withColumn("partition", scorePartition(numPartitions))
    sampling match {
      case "random" =>
        val byPart = Window.partitionBy(col("partition")).orderBy(rand(seed))
        ranked.withColumn("rn", row_number().over(byPart)).filter(col("rn") <= b).drop("rn")
      case "class" =>
        // Budget split by correct/incorrect share within the partition: the
        // correct class gets its rounded share and the incorrect class (a
        // null `correct` included) the rest, so the two never exceed `b`
        // together.
        val correct = coalesce(col("correct"), lit(false))
        val byPart = Window.partitionBy(col("partition"))
        val kT = sum(when(correct, 1).otherwise(0)).over(byPart)
        val correctBudget = round(lit(b) * kT / count(lit(1)).over(byPart))
        val byClass = Window.partitionBy(col("partition"), correct).orderBy(rand(seed))
        ranked
          .withColumn("budget", when(correct, correctBudget).otherwise(lit(b) - correctBudget).cast("int"))
          .withColumn("rn", row_number().over(byClass))
          .filter(col("rn") <= col("budget"))
          .drop("rn", "budget")
      case "quantile" =>
        // b score-quantile representatives per partition: rank 0, ..., m-1 →
        // pick rows nearest to quantiles i/(b-1).
        val byPart = Window.partitionBy(col("partition")).orderBy(col("score"))
        val cnt = Window.partitionBy(col("partition"))
        val withRank = ranked
          .withColumn("rn", row_number().over(byPart) - 1)
          .withColumn("m", count(lit(1)).over(cnt))
        val denom = math.max(1, b - 1)
        val wanted = (0 until b).map(i => expr(s"cast(round(($i / $denom) * (m - 1)) as int)"))
        withRank.filter(wanted.map(col("rn") === _).reduce(_ || _)).drop("rn", "m")
      case other => sys.error(s"unknown sampling strategy: $other")
    }
  }

  /** Each pair's equal-frequency score partition, `0 until k`, in ascending
    * score order; a NaN score fails the query ([[SetComparison.checkedScore]]).
    */
  private def scorePartition(k: Int): Column = ntile(k).over(Window.orderBy(SetComparison.checkedScore)) - 1

  /** Per-partition confusion labels (4.2.3): partitions annotated with their
    * correct/incorrect counts so users can focus on unconfident sections.
    */
  def partitionConfidence(pairs: DataFrame, numPartitions: Int): DataFrame = {
    pairs.withColumn("partition", scorePartition(numPartitions))
      .groupBy(col("partition"))
      .agg(
        count(lit(1)).as("pairs"),
        sum(when(col("correct"), 1).otherwise(0)).as("correctPairs"),
        sum(when(col("correct"), 0).otherwise(1)).as("incorrectPairs"),
        min(col("score")).as("minScore"),
        max(col("score")).as("maxScore"),
      )
      .orderBy(col("partition"))
  }

  /** Plain result pairs (4.2.4): hide pairs added by the clustering step,
    * keeping only pairs originally labelled by the matching solution.
    * `original` is the solution's raw pair output. The pairs of both sets:
    * their Venn intersection ([[SetComparison.select]], Section 4.1).
    */
  def plainResultPairs(closedPairs: DataFrame, original: DataFrame): DataFrame =
    SetComparison.select(Seq(closedPairs, original), include = Set(0, 1), exclude = Set.empty)
}
