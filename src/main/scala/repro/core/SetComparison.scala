package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Set-based comparison of N experiments' pair sets (Frost, Section 4.1):
  * the generic intersection/difference machinery behind the interactive
  * Venn diagrams.
  *
  * A *pair set* is a DataFrame (a: Long, b: Long) with a < b (canonical
  * unordered pairs; [[canonicalPairs]]). A pair's *region* is the
  * bitmask of experiments containing it (bit i set ⇔ pair ∈ experiment i),
  * so the 2^N − 1 non-empty regions of the Venn diagram are the distinct
  * bitmask values.
  */
object SetComparison {

  /** Canonicalize an edge/pair DataFrame with columns `a`, `b` to a < b and
    * drop self-pairs and duplicates.
    *
    * A pair with a null endpoint fails the query that reads it, with a
    * message naming the pair (`least` and `greatest` would skip the null
    * and make it a self-pair); the check adds no Spark job.
    */
  def canonicalPairs(pairs: DataFrame): DataFrame = {
    val checked = when(col("a").isNull || col("b").isNull, pairError("has a null endpoint"))
    pairs
      .select(checked.otherwise(least(col("a"), col("b"))).as("a"),
        checked.otherwise(greatest(col("a"), col("b"))).as("b"))
      .filter(col("a") < col("b"))
      .distinct()
  }

  /** The `score` column of a scored pair set (a, b, score), failing the
    * query that reads it with a message naming the pair if a score is NaN:
    * Spark orders NaN above every number, so a score filter, sort or mean
    * would take it silently. The check adds no Spark job.
    */
  private[core] def checkedScore: Column =
    when(isnan(col("score")), pairError("has a NaN score")).otherwise(col("score"))

  /** Fails the query that evaluates it: `pair (a, b) <problem>`. */
  private def pairError(problem: String): Column = {
    def shown(c: String) = coalesce(col(c).cast("string"), lit("null"))
    raise_error(concat(lit("pair ("), shown("a"), lit(", "), shown("b"), lit(s") $problem")))
  }

  /** Assign every pair occurring in any experiment to its Venn region.
    * Returns (a, b, region: Long).
    */
  def vennRegions(experiments: Seq[DataFrame]): DataFrame = {
    require(experiments.nonEmpty, "need at least one experiment")
    require(experiments.size <= 62, "bitmask regions support at most 62 experiments")
    val tagged = experiments.zipWithIndex.map { case (df, i) =>
      canonicalPairs(df).select(col("a"), col("b"), lit(1L << i).as("bit"))
    }
    tagged.reduce(_ union _)
      .groupBy(col("a"), col("b"))
      .agg(sum(col("bit")).as("region"))
  }

  /** Pairs in every experiment of `include` and no experiment of `exclude` —
    * the generic "clicked Venn region" selection. Index-based over the same
    * `experiments` list passed to [[vennRegions]].
    */
  def select(experiments: Seq[DataFrame], include: Set[Int], exclude: Set[Int]): DataFrame = {
    require(include.nonEmpty, "must include at least one experiment")
    require(include.intersect(exclude).isEmpty, "include and exclude overlap")
    val regions = vennRegions(experiments)
    val incMask = include.map(1L << _).sum
    val excMask = exclude.map(1L << _).sum
    regions
      .filter((col("region").bitwiseAND(incMask)) === incMask)
      .filter((col("region").bitwiseAND(excMask)) === 0)
      .select(col("a"), col("b"))
  }

  /** Count of pairs per non-empty Venn region: (region, pairs). */
  def regionCounts(experiments: Seq[DataFrame]): DataFrame =
    vennRegions(experiments)
      .groupBy(col("region"))
      .agg(count(lit(1)).as("pairs"))

  /** Confusion-matrix partitions as set operations (Section 4.1): with
    * experiments = Seq(E, G), TP = E∩G, FP = E∖G, FN = G∖E.
    */
  def falsePositives(exp: DataFrame, gold: DataFrame): DataFrame =
    select(Seq(exp, gold), include = Set(0), exclude = Set(1))

  def falseNegatives(exp: DataFrame, gold: DataFrame): DataFrame =
    select(Seq(exp, gold), include = Set(1), exclude = Set(0))

  def truePositives(exp: DataFrame, gold: DataFrame): DataFrame =
    select(Seq(exp, gold), include = Set(0, 1), exclude = Set.empty)

  /** Experimental ground truth (Section 4.1 / [55]): intersection of all. */
  def experimentalGroundTruth(experiments: Seq[DataFrame]): DataFrame =
    select(experiments, include = experiments.indices.toSet, exclude = Set.empty)

  /** Enrich a pair set with the actual dataset records (Frost joins IDs back
    * to records so users see content, not identifiers). `records` must have
    * an `id` column; its remaining columns are prefixed `a_` / `b_`.
    */
  def enrich(pairs: DataFrame, records: DataFrame): DataFrame = {
    val attrs = records.columns.filterNot(_ == "id")
    val left  = records.select((col("id").as("a") +: attrs.map(c => col(c).as(s"a_$c"))).toSeq: _*)
    val right = records.select((col("id").as("b") +: attrs.map(c => col(c).as(s"b_$c"))).toSeq: _*)
    pairs.join(left, Seq("a")).join(right, Seq("b"))
  }
}
