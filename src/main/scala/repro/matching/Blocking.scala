package repro.matching

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types.{LongType, StructField, StructType}

/** Candidate generation via token blocking (Frost pipeline step 2,
  * Section 1.2): records sharing a blocking token become candidate pairs.
  * Oversized blocks (stop-word tokens) are dropped via `maxBlockSize` —
  * the standard guard against quadratic blow-up. Tokens shorter than three
  * characters (articles, initials) never form blocks.
  */
object Blocking {

  /** Fewest code points a blocking token has. */
  private[matching] val shortestToken = 3

  /** Token blocking over the given attributes: the blocking half of a
    * [[TokenIndex]] over `records`, its pairs emitted in Spark tasks.
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
      maxBlockSize: Int = 50,
      knownVocab: Option[Set[String]] = None,
  ): DataFrame = {
    val index = TokenIndex(records, attrs, Nil, maxBlockSize, knownVocab)
    val ids = index.ids
    index.frame(records.sparkSession, pairSchema)((i, j) => Row(ids(i), ids(j)))
  }

  private[matching] val pairSchema: StructType = StructType(Seq(
    StructField("a", LongType, nullable = false),
    StructField("b", LongType, nullable = false)))
}
