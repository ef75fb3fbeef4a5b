package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, LongType, StringType, StructField, StructType}

/** Profiling and exploration measures as cache-then-count pipelines, the
  * references their one-query versions are checked against: each caches an
  * intermediate result and runs one action per count it needs.
  */
object ReferenceExploration {

  /** [[Profiling.vocabularySimilarity]]: both vocabularies cached, then the
    * join count and each side's count.
    */
  def vocabularySimilarity(d1: DataFrame, attrs1: Seq[String], d2: DataFrame, attrs2: Seq[String]): Double = {
    val v1 = Profiling.vocabulary(d1, attrs1).cache()
    val v2 = Profiling.vocabulary(d2, attrs2).cache()
    val inter = v1.join(v2, Seq("token"), "inner").count()
    val union = v1.count() + v2.count() - inter
    v1.unpersist(); v2.unpersist()
    if (union == 0) 0.0 else inter.toDouble / union
  }

  /** [[MetricsEngine.confusionMatrixFromPairs]]: both canonical pair sets
    * cached, then the join count and each side's count.
    */
  def confusionMatrixFromPairs(expPairs: DataFrame, goldPairs: DataFrame, n: Long): ConfusionMatrix = {
    val e = SetComparison.canonicalPairs(expPairs).cache()
    val g = SetComparison.canonicalPairs(goldPairs).cache()
    val tp = e.join(g, Seq("a", "b")).count()
    val ec = e.count(); val gc = g.count()
    e.unpersist(); g.unpersist()
    val total = ConfusionMatrix.pairsOf(n)
    ConfusionMatrix(tp, ec - tp, gc - tp, total - ec - gc + tp)
  }

  /** [[NoGroundTruth.consensusDeviation]]: the tallied Venn regions cached,
    * then one filtered count per experiment.
    */
  def consensusDeviation(experiments: Seq[DataFrame]): Seq[(Int, Long)] = {
    require(experiments.size >= 2, "consensus needs at least two experiments")
    val regions = SetComparison.vennRegions(experiments).cache()
    val half = experiments.size / 2.0
    val votesExpr = experiments.indices
      .map(i => when(col("region").bitwiseAND(1L << i) =!= 0, 1).otherwise(0))
      .reduce(_ + _)
    val tallied = regions.withColumn("votes", votesExpr).withColumn("majority", votesExpr > half).cache()
    val out = experiments.indices.map { i =>
      val has = col("region").bitwiseAND(1L << i) =!= 0
      val dev = tallied.filter((has && !col("majority")) || (!has && col("majority"))).count()
      (i, dev)
    }
    regions.unpersist(); tallied.unpersist()
    out
  }

  /** [[ErrorAnalysis.nullRatio]]. */
  def nullRatio(pairs: DataFrame, records: DataFrame, attrs: Seq[String]): DataFrame =
    attributeRatio(pairs, records, attrs, (l, r) => l.isNull || r.isNull,
      "nullCount", "falseNullCount", "nullRatio")

  /** [[ErrorAnalysis.equalRatio]]. */
  def equalRatio(pairs: DataFrame, records: DataFrame, attrs: Seq[String]): DataFrame =
    attributeRatio(pairs, records, attrs,
      (l, r) => l.isNotNull && r.isNotNull && l === r,
      "equalCount", "falseEqualCount", "equalRatio")

  /** The pair/record join cached, then one filtered aggregation per
    * attribute.
    */
  private def attributeRatio(
      pairs: DataFrame,
      records: DataFrame,
      attrs: Seq[String],
      pred: (org.apache.spark.sql.Column, org.apache.spark.sql.Column) => org.apache.spark.sql.Column,
      countName: String,
      falseName: String,
      ratioName: String,
  ): DataFrame = {
    val left  = records.select((col("id").as("a") +: attrs.map(c => col(c).as(s"la_$c"))).toSeq: _*)
    val right = records.select((col("id").as("b") +: attrs.map(c => col(c).as(s"rb_$c"))).toSeq: _*)
    val joined = pairs.join(left, Seq("a")).join(right, Seq("b")).cache()
    val rows = attrs.map { a =>
      val hit = joined.filter(pred(col(s"la_$a"), col(s"rb_$a")))
      val agg = hit.agg(
        count(lit(1)).as("cnt"),
        coalesce(sum(when(col("correct"), 0).otherwise(1)), lit(0L)).as("falseCnt"),
      ).collect()(0)
      val cnt = agg.getLong(0)
      val falseCnt = agg.getLong(1)
      Row(a, cnt, falseCnt, if (cnt == 0) 0.0 else falseCnt.toDouble / cnt)
    }
    joined.unpersist()
    val schema = StructType(Seq(
      StructField("attribute", StringType),
      StructField(countName, LongType, nullable = false),
      StructField(falseName, LongType, nullable = false),
      StructField(ratioName, DoubleType, nullable = false)))
    DriverFrames(pairs.sparkSession, rows.length, schema)(rows(_))
  }

  /** [[SortingStrategies.recordEntropy]]: each column's token total is
    * counted while the frame is built.
    */
  def recordEntropy(records: DataFrame, attrs: Seq[String]): DataFrame = {
    require(attrs.nonEmpty, "need at least one attribute")
    val perAttr = attrs.map { a =>
      // Explode into (id, token) with per-cell token counts.
      val tokens = records
        .select(col("id"), explode(split(lower(coalesce(col(a).cast("string"), lit(""))), "\\s+")).as("token"))
        .filter(col("token") =!= "")
      val cellCounts = tokens.groupBy(col("id"), col("token")).agg(count(lit(1)).as("cnt"))
      val cellTotals = cellCounts.groupBy(col("id")).agg(sum(col("cnt")).as("cellTotal"))
      val colTotal   = tokens.count()
      val colCounts  = tokens.groupBy(col("token")).agg((count(lit(1)) / lit(colTotal.toDouble)).as("columnProb"))
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
}
