package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, LongType, StringType, StructField, StructType}

/** Error analysis (Frost, Sections 4.4, 4.5.2, 4.5.3): explain
  * misclassifications via similar correctly-classified pairs and via the
  * null/equality structure of attributes.
  */
object ErrorAnalysis {

  /** Distance score between a misclassified pair p_f and a correctly
    * classified candidate p_t (Section 4.4): build the direct and cross
    * record-similarity vectors, take each vector's Minkowski-q norm, and
    * score the candidate by the larger norm.
    *
    * @param sim record-to-record similarity in [0, 1]
    */
  def pairDistanceScore(
      sim: (Long, Long) => Double,
      pf: (Long, Long),
      pt: (Long, Long),
      q: Double = 2.0,
  ): Double = {
    require(q >= 1.0 && q <= 2.0, s"q must be in [1, 2], got $q")
    def norm(x: Double, y: Double): Double = math.pow(math.pow(x, q) + math.pow(y, q), 1.0 / q)
    val direct = norm(sim(pf._1, pt._1), sim(pf._2, pt._2))
    val cross  = norm(sim(pf._1, pt._2), sim(pf._2, pt._1))
    math.max(direct, cross)
  }

  /** The correctly classified pair most similar to a misclassified pair:
    * argmax of [[pairDistanceScore]] over the candidates.
    */
  def nearestCorrectPair(
      sim: (Long, Long) => Double,
      pf: (Long, Long),
      candidates: Seq[(Long, Long)],
      q: Double = 2.0,
  ): Option[((Long, Long), Double)] =
    candidates.map(pt => (pt, pairDistanceScore(sim, pf, pt, q))).maxByOption(_._2)

  /** nullRatio per attribute (Section 4.5.2).
    *
    * For every attribute a: nullCount(a) = pairs where at least one side is
    * null in a; falseNullCount(a) = misclassified pairs among them;
    * nullRatio(a) = falseNullCount / nullCount.
    *
    * @param pairs   classified pairs: (a, b, correct: Boolean)
    * @param records dataset with `id` + the attributes
    * @return (attribute, nullCount, falseNullCount, nullRatio)
    */
  def nullRatio(pairs: DataFrame, records: DataFrame, attrs: Seq[String]): DataFrame =
    attributeRatio(pairs, records, attrs, (l, r) => l.isNull || r.isNull,
      "nullCount", "falseNullCount", "nullRatio")

  /** equalRatio per attribute (Section 4.5.3): like nullRatio but over pairs
    * whose records are (non-null and) equal in the attribute.
    */
  def equalRatio(pairs: DataFrame, records: DataFrame, attrs: Seq[String]): DataFrame =
    attributeRatio(pairs, records, attrs,
      (l, r) => l.isNotNull && r.isNotNull && l === r,
      "equalCount", "falseEqualCount", "equalRatio")

  private def attributeRatio(
      pairs: DataFrame,
      records: DataFrame,
      attrs: Seq[String],
      pred: (org.apache.spark.sql.Column, org.apache.spark.sql.Column) => org.apache.spark.sql.Column,
      countName: String,
      falseName: String,
      ratioName: String,
  ): DataFrame = {
    // One aggregation over the pairs joined with both records: per
    // attribute, the pairs the predicate holds for and the misclassified
    // ones among them (a null `correct` counts as misclassified).
    val misclassified = !coalesce(col("correct"), lit(false))
    val counts = attrs.flatMap { a =>
      val hit = pred(col(s"a_$a"), col(s"b_$a"))
      Seq(count(when(hit, true)), count(when(hit && misclassified, true)))
    }
    val agg = SetComparison.enrich(pairs, records.select(("id" +: attrs).map(col): _*)).select(counts: _*).collect()(0)
    val rows = attrs.indices.map { i =>
      val cnt = agg.getLong(2 * i)
      val falseCnt = agg.getLong(2 * i + 1)
      Row(attrs(i), cnt, falseCnt, if (cnt == 0) 0.0 else falseCnt.toDouble / cnt)
    }
    val schema = StructType(Seq(
      StructField("attribute", StringType),
      StructField(countName, LongType, nullable = false),
      StructField(falseName, LongType, nullable = false),
      StructField(ratioName, DoubleType, nullable = false)))
    DriverFrames(pairs.sparkSession, rows.length, schema)(rows(_))
  }
}
