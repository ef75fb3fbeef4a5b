package repro.matching

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.catalyst.expressions.GenericRow
import org.apache.spark.sql.functions.{col, lit, when}
import org.apache.spark.sql.types.{DoubleType, LongType, StructField, StructType}

/** Candidate generation via token blocking and the candidates' scores
  * (Frost pipeline steps 2–4, Section 1.2): records sharing a blocking
  * token become candidate pairs, each with a per-attribute similarity and a
  * weighted decision score. Oversized blocks (stop-word tokens) are dropped
  * via `maxBlockSize` — the standard guard against quadratic blow-up.
  * Tokens shorter than three characters (articles, initials) never form
  * blocks.
  */
object Blocking {

  /** Fewest code points a blocking token has. */
  private[matching] val shortestToken = 3

  /** Token blocking over the given attributes: the pairs of a
    * [[similarities]] table that scores no attribute.
    *
    * @param records      DataFrame with a unique, non-null long `id` and
    *                     string attributes
    * @param attrs        attributes contributing blocking tokens
    * @param maxBlockSize drop blocks with more members than this
    * @param knownVocab   if set, only these tokens may form blocks — models a
    *                     solution whose candidate generation was trained on a
    *                     specific vocabulary (out-of-vocabulary tokens are
    *                     invisible to it)
    * @return candidate pairs (a, b) with a < b, distinct
    * @throws IllegalArgumentException naming the ID, if an ID is null or
    *         appears more than once
    */
  def tokenBlocking(
      records: DataFrame,
      attrs: Seq[String],
      maxBlockSize: Int,
      knownVocab: Option[Set[String]] = None,
  ): DataFrame = similarities(records, Nil, attrs, maxBlockSize, knownVocab)

  /** Per-attribute similarity table: the candidate pairs (a, b) of token
    * blocking over `blockingAttrs` with, for each of `attrs`, `act_<attr>`
    * (1.0 when either side is non-null, else 0.0) and `sim_<attr>` (0.0
    * when either side is null). The similarity is the vocabulary-discounted
    * token Jaccard of [[Similarity.knownJaccard]], the plain token Jaccard
    * without `vocab`; its string references, `tokenJaccardKnown` and
    * `tokenJaccard`, live in test scope in `ReferenceSimilarity`. One
    * [[TokenIndex]] over `records` encodes each record once; Spark tasks
    * then emit the candidate pairs of ranges of its blocks and compute their
    * similarities in the same row, so the table is computed with no shuffle.
    *
    * @throws IllegalArgumentException naming the ID, if a record ID is null
    *         or appears more than once
    */
  def similarities(
      records: DataFrame,
      attrs: Seq[String],
      blockingAttrs: Seq[String],
      maxBlockSize: Int,
      vocab: Option[Set[String]],
  ): DataFrame = {
    require(attrs.distinct.size == attrs.size, s"each attribute once, got ${attrs.mkString(", ")}")
    val index = TokenIndex(records, blockingAttrs, attrs, maxBlockSize, vocab)
    val schema = StructType(pairSchema.fields ++ attrs.flatMap(at => Seq(
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

  /** Score column over a [[similarities]] table: the weighted mean of
    * `sim_<attr>` over the attributes whose `act_<attr>` is set, 0.0 when
    * none is. An attribute null on both sides carries no signal and is left
    * out; a null on one side scores 0, so missing data hurts, which is the
    * "material mismatch" mechanism of Frost Section 4.5.2.
    *
    * @throws IllegalArgumentException naming the attribute, if a weight is
    *         not finite (NaN or infinite) or negative or an attribute is
    *         listed twice, or if no weight is positive
    */
  def weightedScore(weights: Seq[(String, Double)]): Column = {
    weights.foreach { case (at, w) =>
      require(java.lang.Double.isFinite(w), s"non-finite weight $w for $at")
      require(w >= 0, s"negative weight $w for $at")
    }
    require(weights.exists(_._2 > 0), s"need a positive weight, got ${weights.mkString(", ")}")
    val repeated = weights.map(_._1).diff(weights.map(_._1).distinct)
    require(repeated.isEmpty, s"one weight per attribute, ${repeated.distinct.mkString(", ")} listed twice")
    val num = weights.map { case (at, w) => lit(w) * col(s"sim_$at") }.reduce(_ + _)
    val den = weights.map { case (at, w) => lit(w) * col(s"act_$at") }.reduce(_ + _)
    when(den > 0, num / den).otherwise(lit(0.0))
  }

  private[matching] val pairSchema: StructType = StructType(Seq(
    StructField("a", LongType, nullable = false),
    StructField("b", LongType, nullable = false)))
}
