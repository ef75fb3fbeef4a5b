package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Dataset profiling metrics for benchmark-dataset selection
  * (Frost, Sections 3.1.3 and Appendix C / Table 2).
  */
object Profiling {

  /** Sparsity (SP): fraction of missing attribute values over all attribute
    * values of the given attributes (Primpeli & Bizer).
    */
  def sparsity(records: DataFrame, attrs: Seq[String]): Double = {
    require(attrs.nonEmpty, "need at least one attribute")
    val nullCols = attrs.map(a => sum(when(col(a).isNull, 1).otherwise(0)))
    val row = records.agg(nullCols.head, nullCols.tail: _*).collect()(0)
    val nulls = attrs.indices.map(Rows.long(row, _)).sum
    val total = records.count() * attrs.size
    if (total == 0) 0.0 else nulls.toDouble / total
  }

  /** Textuality (TX): average number of whitespace-separated words per
    * attribute value that has any (Primpeli & Bizer). Null, empty and
    * whitespace-only values have no words and are left out.
    */
  def textuality(records: DataFrame, attrs: Seq[String]): Double = {
    require(attrs.nonEmpty, "need at least one attribute")
    val perAttr = attrs.map { a =>
      records.filter(col(a).isNotNull)
        .select(size(array_remove(split(col(a).cast("string"), "\\s+"), "")).as("words"))
    }
    val all = perAttr.reduce(_ union _).filter(col("words") > 0)
    Rows.double(all.agg(avg(col("words")).as("tx")).collect()(0), 0)
  }

  /** Tuple count (TC). */
  def tupleCount(records: DataFrame): Long = records.count()

  /** Positive ratio (PR): true duplicate pairs over all record pairs.
    * Computed from the gold clustering: Σ_c C(|c|,2) / C(n,2).
    */
  def positiveRatio(gold: DataFrame): Double = {
    val n = gold.count()
    val total = ConfusionMatrix.pairsOf(n)
    if (total == 0) 0.0 else ClusteringOps.pairCount(gold).toDouble / total
  }

  /** Vocabulary of a dataset: distinct whitespace tokens over the given
    * attributes (lower-cased).
    */
  def vocabulary(records: DataFrame, attrs: Seq[String]): DataFrame = {
    require(attrs.nonEmpty, "need at least one attribute")
    attrs.map { a =>
      records.select(explodeTokens(col(a)).as("token"))
        .filter(col("token") =!= "")
    }.reduce(_ union _).distinct()
  }

  /** One row per whitespace-separated token of a column's lower-cased
    * string value. A null or empty value yields one empty token and leading
    * whitespace an empty first token, which callers filter out.
    */
  private[repro] def explodeTokens(c: Column): Column =
    explode(split(lower(coalesce(c.cast("string"), lit(""))), "\\s+"))

  /** Vocabulary similarity (VS): Jaccard coefficient of the two datasets'
    * vocabularies (Section 3.1.3).
    */
  def vocabularySimilarity(d1: DataFrame, attrs1: Seq[String], d2: DataFrame, attrs2: Seq[String]): Double = {
    val v1 = vocabulary(d1, attrs1).cache()
    val v2 = vocabulary(d2, attrs2).cache()
    val inter = v1.join(v2, Seq("token"), "inner").count()
    val union = v1.count() + v2.count() - inter
    v1.unpersist(); v2.unpersist()
    if (union == 0) 0.0 else inter.toDouble / union
  }

  /** Full profile row for a dataset (SP, TX, TC, PR) — Table 2 machinery. */
  final case class Profile(sparsity: Double, textuality: Double, tupleCount: Long, positiveRatio: Double)

  def profile(records: DataFrame, gold: DataFrame, attrs: Seq[String]): Profile =
    Profile(sparsity(records, attrs), textuality(records, attrs), tupleCount(records), positiveRatio(gold))
}
