package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.matching.Similarity

/** Sorting strategies for pair interestingness (Frost, Section 4.3). */
object SortingStrategies {

  /** Sort a scored pair set by similarity (4.3.1). The sort reads
    * [[SetComparison.checkedScore]], so a NaN score fails the query naming
    * its pair, where Spark would rank it above every number.
    */
  def bySimilarity(pairs: DataFrame, descending: Boolean = true): DataFrame = {
    val score = SetComparison.checkedScore
    pairs.orderBy(if (descending) score.desc else score.asc)
  }

  /** A cell's tokens, repeats included, as [[Similarity.foreachToken]]
    * scans them: lower-cased words; none for null.
    */
  private val cellTokens = udf { (s: String) =>
    val b = Seq.newBuilder[String]
    Similarity.foreachToken(s)(b += _)
    b.result()
  }

  /** Record entropy per the paper's column entropy (4.3.2): for every cell,
    * Σ_token prob_t · −log(columnProb_t) where prob_t is the token's
    * frequency within the cell and columnProb_t its frequency within the
    * column; a record's entropy is the sum of its cell entropies. A cell's
    * tokens are its `cellTokens`, so tokens differing only in case are one.
    *
    * @param records DataFrame with an `id` column; `attrs` are string columns
    * @return (id, entropy)
    */
  def recordEntropy(records: DataFrame, attrs: Seq[String]): DataFrame = {
    require(attrs.nonEmpty, "need at least one attribute")
    val perAttr = attrs.map { a =>
      // Explode into (id, token) with per-cell token counts.
      val tokens = records.select(col("id"), explode(cellTokens(col(a).cast("string"))).as("token"))
      val cellCounts = tokens.groupBy(col("id"), col("token")).agg(count(lit(1)).as("cnt"))
      val cellTotals = cellCounts.groupBy(col("id")).agg(sum(col("cnt")).as("cellTotal"))
      // The column's token total joins in as a one-row frame, so building
      // this plan starts no Spark job.
      val colTotal   = tokens.agg(count(lit(1)).as("colTotal"))
      val colCounts  = tokens.groupBy(col("token")).agg(count(lit(1)).as("tokenCount"))
        .crossJoin(colTotal)
        .select(col("token"), (col("tokenCount") / col("colTotal")).as("columnProb"))
      cellCounts
        .join(cellTotals, Seq("id"))
        .join(colCounts, Seq("token"))
        .groupBy(col("id"))
        .agg(sum((col("cnt") / col("cellTotal")) * -log(col("columnProb"))).as("cellEntropy"))
    }
    val unioned = perAttr.reduce(_ union _)
    // Records whose every cell is empty contribute no rows; re-join so they
    // surface with entropy 0.
    records.select(col("id"))
      .join(unioned.groupBy(col("id")).agg(sum(col("cellEntropy")).as("entropy")), Seq("id"), "left")
      .select(col("id"), coalesce(col("entropy"), lit(0.0)).as("entropy"))
  }

  /** Pair entropy: sum of both records' entropies; sorts a pair set by it
    * (high entropy = many rare tokens = expected-easy pairs first).
    */
  def byEntropy(pairs: DataFrame, records: DataFrame, attrs: Seq[String], descending: Boolean = true): DataFrame = {
    val ent = recordEntropy(records, attrs)
    val withEnt = pairs
      .join(ent.select(col("id").as("a"), col("entropy").as("entA")), Seq("a"))
      .join(ent.select(col("id").as("b"), col("entropy").as("entB")), Seq("b"))
      .withColumn("pairEntropy", col("entA") + col("entB"))
      .drop("entA", "entB")
    withEnt.orderBy(if (descending) col("pairEntropy").desc else col("pairEntropy").asc)
  }
}
