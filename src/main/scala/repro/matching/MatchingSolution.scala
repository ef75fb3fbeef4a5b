package repro.matching

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.catalyst.expressions.GenericRow
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, StructField, StructType}

import repro.graph.ConnectedComponents

/** How one attribute contributes to a weighted rule score: its weight on
  * the attribute's token Jaccard.
  */
final case class AttributeRule(attr: String, weight: Double) {
  require(weight >= 0, s"negative weight for $attr")
}

/** A matching solution: dataset → scored candidate pairs (Frost, Section
  * 1.2, steps 2–4). The pipeline is token blocking → per-attribute
  * similarity → weighted decision score; `matches(threshold)` applies the
  * decision and `clustering` transitively closes the matches into an
  * experiment.
  *
  * The score is the weighted mean of the per-attribute similarities. When
  * both values of an attribute are null the attribute is excluded from the
  * weighted mean (it carries no signal); a null on one side scores 0 —
  * missing data hurts, which is exactly the "material mismatch" mechanism
  * of Frost Section 4.5.2.
  *
  * With `knownVocab` set, token Jaccard is [[Similarity.tokenJaccardKnown]]
  * (shared out-of-vocabulary tokens count half); without it, plain
  * [[Similarity.tokenJaccard]].
  */
final case class WeightedRuleMatcher(
    name: String,
    rules: Seq[AttributeRule],
    blockingAttrs: Seq[String],
    maxBlockSize: Int = 50,
    knownVocab: Option[Set[String]] = None,
) {
  require(rules.nonEmpty && rules.exists(_.weight > 0), "need at least one weighted rule")
  require(rules.map(_.attr).distinct.size == rules.size,
    s"one rule per attribute, got ${rules.map(_.attr).mkString(", ")}")

  /** Per-attribute similarity table: candidate pairs (a, b) with, for each
    * rule's attribute, `act_<attr>` (1.0 when either side is non-null, else
    * 0.0) and `sim_<attr>` (the vocabulary-discounted token Jaccard, 0.0
    * when either side is null). One [[TokenIndex]] over `records` encodes
    * each record once; Spark tasks then emit the candidate pairs of ranges
    * of its blocks and compute their similarities in the same row, so the
    * table is computed with no shuffle.
    *
    * @throws IllegalArgumentException naming the ID, if a record ID is null
    *         or appears more than once
    */
  def similarities(records: DataFrame): DataFrame = {
    val attrs = rules.map(_.attr)
    val index = TokenIndex(records, blockingAttrs, attrs, maxBlockSize, knownVocab)
    val schema = StructType(Blocking.pairSchema.fields ++ attrs.flatMap(at => Seq(
      StructField(s"act_$at", DoubleType, nullable = false),
      StructField(s"sim_$at", DoubleType, nullable = false))))
    val (ids, encoded) = (index.ids, index.encoded)
    index.frame(records.sparkSession, schema) { (i, j) =>
      val values = new Array[Any](2 + 2 * encoded.length)
      values(0) = ids(i); values(1) = ids(j)
      var k = 0
      while (k < encoded.length) {
        val x = encoded(k)(i); val y = encoded(k)(j)
        values(2 + 2 * k) = if (x != null || y != null) 1.0 else 0.0
        values(3 + 2 * k) = if (x == null || y == null) 0.0 else Similarity.knownJaccard(x, y)
        k += 1
      }
      new GenericRow(values)
    }
  }

  /** Scored candidate pairs: (a, b, score) with score in [0, 1]. */
  def score(records: DataFrame): DataFrame =
    similarities(records).select(col("a"), col("b"),
      WeightedRuleMatcher.weightedScore(rules.map(r => r.attr -> r.weight)).as("score"))

  /** Pairs whose score passes the threshold. */
  def matches(records: DataFrame, threshold: Double): DataFrame =
    score(records).filter(col("score") >= threshold).select(col("a"), col("b"), col("score"))

  /** Experiment clustering (id, cluster): transitive closure of the matches. */
  def clustering(records: DataFrame, threshold: Double): DataFrame = {
    val edges = matches(records, threshold).select(col("a").as("src"), col("b").as("dst"))
    ConnectedComponents.closure(records, edges)
  }
}

object WeightedRuleMatcher {

  /** Score column over a [[WeightedRuleMatcher.similarities]] table: the
    * weighted mean of `sim_<attr>` over the attributes whose `act_<attr>`
    * is set, 0.0 when none is.
    */
  def weightedScore(weights: Seq[(String, Double)]): Column = {
    val num = weights.map { case (at, w) => lit(w) * col(s"sim_$at") }.reduce(_ + _)
    val den = weights.map { case (at, w) => lit(w) * col(s"act_$at") }.reduce(_ + _)
    when(den > 0, num / den).otherwise(lit(0.0))
  }
}
