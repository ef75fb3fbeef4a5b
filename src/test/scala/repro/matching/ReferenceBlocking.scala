package repro.matching

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Token blocking as a Spark DataFrame pipeline, the reference the token
  * index's candidate set is checked against: Spark's
  * `split(lower(coalesce(...)))` tokenizer, a vocabulary UDF, two
  * `distinct`s and a self-join on the string tokens.
  */
object ReferenceBlocking {

  def tokenBlocking(
      records: DataFrame,
      attrs: Seq[String],
      maxBlockSize: Int,
      knownVocab: Option[Set[String]],
  ): DataFrame = {
    val isKnown = knownVocab.map(vocab => udf((t: String) => vocab.contains(t)))
    val keyed = attrs.map { a =>
      val tokens = records
        .select(col("id"), explodeTokens(col(a)).as("token"))
        .filter(length(col("token")) >= Blocking.shortestToken)
      isKnown.fold(tokens)(f => tokens.filter(f(col("token"))))
    }.reduce(_ union _).distinct()

    val blockSizes = keyed.groupBy(col("token")).agg(count(lit(1)).as("bs"))
    val pruned = keyed.join(blockSizes.filter(col("bs") <= maxBlockSize), Seq("token"))

    val l = pruned.select(col("token"), col("id").as("a"))
    val r = pruned.select(col("token").as("token2"), col("id").as("b"))
    l.join(r, l("token") === r("token2") && col("a") < col("b"))
      .select(col("a"), col("b"))
      .distinct()
  }

  /** One row per whitespace-separated token of a column's lower-cased
    * string value. A null or empty value yields one empty token and leading
    * whitespace an empty first token, which callers filter out.
    */
  private[repro] def explodeTokens(c: Column): Column =
    explode(split(lower(coalesce(c.cast("string"), lit(""))), "\\s+"))
}
