package repro.matching

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.graph.ConnectedComponents

/** How one attribute contributes to a weighted rule score. */
final case class AttributeRule(attr: String, weight: Double, measure: String = "jaccard") {
  require(weight >= 0, s"negative weight for $attr")

  /** Similarity of two non-null sides; a "jaccard" side is the attribute
    * encoded by [[Similarity.tokenEncoder]], the others the raw value.
    */
  def simCol(l: Column, r: Column): Column = measure match {
    case "jaccard"     => Similarity.knownJaccardCol(l, r)
    case "levenshtein" => Similarity.levenshteinSimCol(l, r)
    case "equality"    => Similarity.equalityCol(l, r)
    case other         => sys.error(s"unknown measure: $other")
  }
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
    * 0.0) and `sim_<attr>` (the rule's similarity, 0.0 when either side is
    * null). Token-Jaccard attributes are tokenized and encoded per record,
    * before the join with the candidates, so each candidate pair costs one
    * merge of two ID arrays.
    */
  def similarities(records: DataFrame): DataFrame = {
    val candidates = Blocking.tokenBlocking(records, blockingAttrs, maxBlockSize, knownVocab = knownVocab)
    lazy val encode = Similarity.tokenEncoder(records, rules.filter(_.measure == "jaccard").map(_.attr), knownVocab)
    val sides = rules.map(r => if (r.measure == "jaccard") encode(col(r.attr)) else col(r.attr))
    def side(id: String, prefix: String) =
      records.select(col("id").as(id) +: rules.zip(sides).map { case (r, c) => c.as(s"$prefix${r.attr}") }: _*)
    val joined = candidates.join(side("a", "la_"), Seq("a")).join(side("b", "rb_"), Seq("b"))
    val simCols = rules.flatMap { rule =>
      val l = col(s"la_${rule.attr}"); val r = col(s"rb_${rule.attr}")
      Seq(
        when(l.isNotNull || r.isNotNull, 1.0).otherwise(0.0).as(s"act_${rule.attr}"),
        when(l.isNull || r.isNull, 0.0).otherwise(rule.simCol(l, r)).as(s"sim_${rule.attr}"),
      )
    }
    joined.select(col("a") +: col("b") +: simCols: _*)
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
